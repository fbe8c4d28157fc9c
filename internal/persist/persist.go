// Package persist is the disk tier of the synthesis caches: a
// content-addressed, crash-safe store of serialized synthesis results
// shared by every mcpat process pointed at the same cache directory.
//
// The in-memory memo layers (internal/array, internal/component) die
// with the process, so every CLI run and every mcpatd restart used to
// pay full cold synthesis cost. This package gives those layers a third
// tier: memory -> disk -> synthesize, with the single-flight discipline
// preserved (the owner of an in-memory flight is the only goroutine
// that consults disk or synthesizes for its key).
//
// Crash safety is the design center, not an afterthought:
//
//   - Publication is atomic: entries are written to a temp file in the
//     same directory tree, fsynced, then renamed into place. A reader
//     never observes a partially written entry; a crash mid-publish
//     leaves only a stale temp file, swept at the next Open.
//
//   - Every entry carries a magic header, explicit lengths, the full
//     cache key, and a checksum over key+payload, all verified on load.
//     A corrupt, truncated, or bit-flipped entry — or a hash collision,
//     since the stored key is compared byte-for-byte — is quarantined
//     and reported as a miss, never served and never fatal: the caller
//     falls back to cold synthesis and republishes.
//
//   - Disk errors of any kind (ENOSPC, EIO, permission) degrade the
//     operation to a miss or a dropped write, counted but never
//     propagated: a broken disk makes the process slower, not wrong.
//
// Concurrent processes may share one directory: atomic rename makes
// publication safe without coordination, and an advisory flock
// serializes only the eviction sweep. A size budget (Options.MaxBytes)
// bounds the directory; oldest entries (by access time) are evicted
// first.
//
// Entries are namespaced and versioned by their callers ("array.v1",
// "subsys.cache.v1", ...), so a codec change simply strands the old
// namespace, which ages out via eviction.
package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// entryMagic begins every entry file; a file without it is quarantined.
const entryMagic = "MCPE1\n"

// entrySuffix names complete, published entries. Temp files live under
// tmp/ and never carry the suffix, so a scan can tell them apart.
const entrySuffix = ".mcpe"

// DefaultMaxBytes is the eviction budget when Options.MaxBytes is 0.
const DefaultMaxBytes = 1 << 30 // 1 GiB

// evictTarget is the fraction of MaxBytes an eviction sweep shrinks to,
// so sweeps run in batches instead of once per Put at the boundary.
const evictTarget = 0.9

// Options configures Open.
type Options struct {
	// Dir is the cache directory; created if missing.
	Dir string
	// MaxBytes is the eviction budget; 0 selects DefaultMaxBytes,
	// negative disables eviction.
	MaxBytes int64
	// Logf, when non-nil, receives one line per quarantine, eviction
	// sweep, and degraded write (Printf-style).
	Logf func(format string, args ...any)
	// FS substitutes the filesystem; nil selects the real one. Tests use
	// faultfs here. With a non-nil FS the advisory flock is skipped (the
	// injected filesystem owns the directory's semantics).
	FS FS
}

// Store is one open cache directory. All methods are safe for
// concurrent use by multiple goroutines, and multiple processes may
// share the directory.
type Store struct {
	dir  string
	fs   FS
	max  int64
	logf func(string, ...any)
	lock *dirLock

	tmpSeq atomic.Uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	corrupt   atomic.Uint64
	evicted   atomic.Uint64
	writeErrs atomic.Uint64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// Stats is a snapshot of one store's counters. Bytes and Entries are
// this process's view of the resident set (approximate when several
// processes share the directory; eviction sweeps re-measure).
type Stats struct {
	// Hits counts loads served from disk (verified entries).
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found no entry.
	Misses uint64 `json:"misses"`
	// Corrupt counts entries that failed verification (bad magic,
	// truncation, checksum or key mismatch) and were quarantined.
	Corrupt uint64 `json:"corrupt"`
	// Evicted counts entries removed by the size-budget sweep.
	Evicted uint64 `json:"evicted"`
	// WriteErrors counts publications dropped because of disk errors
	// (ENOSPC, EIO, ...); the result stayed usable in memory.
	WriteErrors uint64 `json:"write_errors"`
	// Bytes and Entries describe the resident set.
	Bytes   int64 `json:"bytes"`
	Entries int64 `json:"entries"`
	// Enabled reports whether a disk tier is active at all (false in the
	// zero Stats returned when no store is configured).
	Enabled bool `json:"enabled"`
}

// HitRate returns the fraction of lookups served from disk.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Corrupt
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Delta returns the counter difference s - prev for reporting one
// sweep's disk activity. Bytes/Entries/Enabled carry the newer values.
// A counter that reads lower than in prev belongs to a store installed
// in between (SetDefault), so its delta is its current value.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:        since(s.Hits, prev.Hits),
		Misses:      since(s.Misses, prev.Misses),
		Corrupt:     since(s.Corrupt, prev.Corrupt),
		Evicted:     since(s.Evicted, prev.Evicted),
		WriteErrors: since(s.WriteErrors, prev.WriteErrors),
		Bytes:       s.Bytes,
		Entries:     s.Entries,
		Enabled:     s.Enabled,
	}
}

// since is one counter's movement from prev to cur; a drop is a restart.
func since(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// Open opens (creating if needed) a cache directory and verifies it is
// usable: the directory must be creatable and writable, or Open returns
// an error and the caller degrades to in-memory operation.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: empty cache directory")
	}
	fsImpl := opts.FS
	useLock := false
	if fsImpl == nil {
		fsImpl = OSFS()
		useLock = true
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	max := opts.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	s := &Store{dir: opts.Dir, fs: fsImpl, max: max, logf: logf}

	if err := fsImpl.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create cache dir: %w", err)
	}
	if err := fsImpl.MkdirAll(filepath.Join(opts.Dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: create tmp dir: %w", err)
	}
	// Probe writability explicitly so a read-only or mis-owned directory
	// fails here, at configuration time, instead of silently dropping
	// every Put later.
	probe := filepath.Join(opts.Dir, "tmp", fmt.Sprintf(".probe-%d", os.Getpid()))
	f, err := fsImpl.Create(probe)
	if err != nil {
		return nil, fmt.Errorf("persist: cache dir not writable: %w", err)
	}
	f.Close()
	fsImpl.Remove(probe)

	if useLock {
		lock, err := acquireDirLock(filepath.Join(opts.Dir, ".lock"))
		if err != nil {
			return nil, fmt.Errorf("persist: lock cache dir: %w", err)
		}
		s.lock = lock
	}

	s.sweepTmp()
	s.measure()
	return s, nil
}

// Close releases the directory lock. The store must not be used after.
func (s *Store) Close() {
	if s == nil {
		return
	}
	s.lock.release()
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the current counters. A nil store returns the zero
// Stats (Enabled false), so callers can report unconditionally.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Evicted:     s.evicted.Load(),
		WriteErrors: s.writeErrs.Load(),
		Bytes:       s.bytes.Load(),
		Entries:     s.entries.Load(),
		Enabled:     true,
	}
}

// sanitizeNS restricts namespaces to path-safe characters and keeps
// them clear of the store's own subdirectories.
func sanitizeNS(ns string) string {
	var b strings.Builder
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" || out == "tmp" || out == "quarantine" {
		out = "ns_" + out
	}
	return out
}

// entryPath content-addresses a key within a namespace. The first hash
// byte fans entries out over 256 subdirectories so no single directory
// grows unboundedly.
func (s *Store) entryPath(ns string, key []byte) string {
	sum := sha256.Sum256(key)
	hexsum := fmt.Sprintf("%x", sum)
	return filepath.Join(s.dir, sanitizeNS(ns), hexsum[:2], hexsum+entrySuffix)
}

// encodeEntry frames key+payload with magic, lengths, and checksum.
func encodeEntry(key, payload []byte) []byte {
	buf := make([]byte, 0, len(entryMagic)+12+len(key)+len(payload)+8)
	buf = append(buf, entryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, key...)
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf[len(entryMagic):]) // lengths + key + payload
	buf = binary.LittleEndian.AppendUint64(buf, h.Sum64())
	return buf
}

// decodeEntry verifies framing and checksum, returning the payload.
func decodeEntry(data, wantKey []byte) ([]byte, error) {
	if len(data) < len(entryMagic)+12+8 {
		return nil, fmt.Errorf("truncated entry (%d bytes)", len(data))
	}
	if string(data[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("bad magic")
	}
	body := data[len(entryMagic):]
	keyLen := binary.LittleEndian.Uint32(body[0:4])
	payLen := binary.LittleEndian.Uint64(body[4:12])
	want := len(entryMagic) + 12 + int(keyLen) + int(payLen) + 8
	if uint64(keyLen) > uint64(len(data)) || payLen > uint64(len(data)) || len(data) != want {
		return nil, fmt.Errorf("length mismatch (header %d+%d, file %d)", keyLen, payLen, len(data))
	}
	sumOff := len(data) - 8
	h := fnv.New64a()
	h.Write(data[len(entryMagic):sumOff])
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(data[sumOff:]); got != want {
		return nil, fmt.Errorf("checksum mismatch")
	}
	key := body[12 : 12+int(keyLen)]
	if string(key) != string(wantKey) {
		return nil, fmt.Errorf("key mismatch (hash collision or cross-namespace file)")
	}
	return body[12+int(keyLen) : 12+int(keyLen)+int(payLen)], nil
}

// Get loads and verifies the entry for key. ok is false on any miss,
// corruption, or disk error — the caller synthesizes cold. Get never
// fails the process.
func (s *Store) Get(ns string, key []byte) (payload []byte, ok bool) {
	if s == nil {
		return nil, false
	}
	path := s.entryPath(ns, key)
	f, err := s.fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
		} else {
			// An unreadable entry is as good as a corrupt one.
			s.quarantine(path, fmt.Errorf("open: %w", err), 0)
		}
		return nil, false
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		s.quarantine(path, fmt.Errorf("read: %w", err), int64(len(data)))
		return nil, false
	}
	payload, err = decodeEntry(data, key)
	if err != nil {
		s.quarantine(path, err, int64(len(data)))
		return nil, false
	}
	s.hits.Add(1)
	// Refresh mtime so the eviction sweep approximates LRU. Best effort.
	now := time.Now()
	s.fs.Chtimes(path, now, now)
	return payload, true
}

// quarantine removes an unusable entry so it is resynthesized, never
// served again, and never refails. Removal failing is itself ignored —
// the entry will fail verification again next time, still a miss.
func (s *Store) quarantine(path string, cause error, size int64) {
	s.corrupt.Add(1)
	s.logf("persist: quarantining %s: %v", path, cause)
	if err := s.fs.Remove(path); err == nil {
		s.bytes.Add(-size)
		s.entries.Add(-1)
	}
}

// Put publishes payload under key with write-temp-then-rename. Failures
// are counted and logged but never returned: a failed publication only
// means the next process pays a cold synthesis.
func (s *Store) Put(ns string, key, payload []byte) {
	if s == nil {
		return
	}
	final := s.entryPath(ns, key)
	if err := s.fs.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		s.dropWrite("mkdir", err)
		return
	}
	entry := encodeEntry(key, payload)
	tmp := filepath.Join(s.dir, "tmp", fmt.Sprintf("put-%d-%d.tmp", os.Getpid(), s.tmpSeq.Add(1)))
	f, err := s.fs.Create(tmp)
	if err != nil {
		s.dropWrite("create temp", err)
		return
	}
	n, err := f.Write(entry)
	if err == nil && n != len(entry) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp)
		s.dropWrite("write temp", err)
		return
	}
	fresh := true
	if _, err := s.fs.Stat(final); err == nil {
		fresh = false // replacing an existing (identical) entry
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		s.dropWrite("publish", err)
		return
	}
	if fresh {
		s.bytes.Add(int64(len(entry)))
		s.entries.Add(1)
	}
	s.maybeEvict()
}

func (s *Store) dropWrite(stage string, err error) {
	s.writeErrs.Add(1)
	s.logf("persist: dropped cache write (%s): %v", stage, err)
}

// sweepTmp removes temp files left by crashed publications.
func (s *Store) sweepTmp() {
	tmpDir := filepath.Join(s.dir, "tmp")
	ents, err := s.fs.ReadDir(tmpDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		s.fs.Remove(filepath.Join(tmpDir, e.Name()))
	}
}

// measure walks the directory to initialize the resident-set gauges.
func (s *Store) measure() {
	var bytes int64
	var entries int64
	s.walkEntries(func(path string, info os.FileInfo) {
		bytes += info.Size()
		entries++
	})
	s.bytes.Store(bytes)
	s.entries.Store(entries)
}

// walkEntries visits every published entry (ns/xx/hash.mcpe).
func (s *Store) walkEntries(visit func(path string, info os.FileInfo)) {
	nsEnts, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, nsEnt := range nsEnts {
		if !nsEnt.IsDir() || nsEnt.Name() == "tmp" || nsEnt.Name() == "quarantine" {
			continue
		}
		nsDir := filepath.Join(s.dir, nsEnt.Name())
		fanEnts, err := s.fs.ReadDir(nsDir)
		if err != nil {
			continue
		}
		for _, fanEnt := range fanEnts {
			if !fanEnt.IsDir() {
				continue
			}
			fanDir := filepath.Join(nsDir, fanEnt.Name())
			files, err := s.fs.ReadDir(fanDir)
			if err != nil {
				continue
			}
			for _, fe := range files {
				if fe.IsDir() || !strings.HasSuffix(fe.Name(), entrySuffix) {
					continue
				}
				path := filepath.Join(fanDir, fe.Name())
				info, err := s.fs.Stat(path)
				if err != nil {
					continue
				}
				visit(path, info)
			}
		}
	}
}

// maybeEvict runs a sweep when the resident set exceeds the budget.
// The sweep is serialized across processes by an exclusive try-lock;
// if another process is sweeping, this one skips.
func (s *Store) maybeEvict() {
	if s.max < 0 || s.bytes.Load() <= s.max {
		return
	}
	release, ok := tryExclusive(filepath.Join(s.dir, ".evict.lock"))
	if !ok {
		return
	}
	defer release()

	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var all []entry
	var total int64
	s.walkEntries(func(path string, info os.FileInfo) {
		all = append(all, entry{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	})
	// Re-measure first: another process may have evicted already.
	s.bytes.Store(total)
	s.entries.Store(int64(len(all)))
	target := int64(evictTarget * float64(s.max))
	if total <= s.max {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	var removed uint64
	for _, e := range all {
		if total <= target {
			break
		}
		if err := s.fs.Remove(e.path); err != nil {
			continue
		}
		total -= e.size
		removed++
		s.bytes.Add(-e.size)
		s.entries.Add(-1)
	}
	if removed > 0 {
		s.evicted.Add(removed)
		s.logf("persist: evicted %d entries (resident now %d bytes, budget %d)", removed, total, s.max)
	}
}
