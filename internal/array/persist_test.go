package array

// Disk-tier equivalence and fault-injection contract at the array
// level: a Result hydrated from the persistent cache must be
// bit-identical to the Result cold synthesis produces, and every kind
// of disk damage — corrupt entries, truncation, failed writes — must
// degrade to cold synthesis, never to a wrong Result or an error.

import (
	"encoding/hex"
	"reflect"
	"testing"

	"mcpat/internal/persist"
	"mcpat/internal/persist/faultfs"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// withStore installs a fresh disk tier for the test and removes it
// after, leaving the memory cache reset on both sides.
func withStore(t *testing.T, opts persist.Options) *persist.Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := persist.Open(opts)
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	prev := persist.SetDefault(s)
	ResetCache()
	t.Cleanup(func() {
		persist.SetDefault(prev)
		s.Close()
		ResetCache()
	})
	return s
}

// coldResults synthesizes the grid with no caches at all — ground truth.
func coldResults(t *testing.T, grid []Config) []*Result {
	t.Helper()
	SetCacheEnabled(false)
	defer SetCacheEnabled(true)
	out := make([]*Result, len(grid))
	for i, cfg := range grid {
		res, err := New(cfg)
		if err != nil {
			t.Fatalf("%s cold: %v", cfg.Name, err)
		}
		out[i] = res
	}
	return out
}

func TestResultCodecRoundTripsBitIdentical(t *testing.T) {
	for _, cfg := range memoGrid(32) {
		SetCacheEnabled(false)
		res, err := New(cfg)
		SetCacheEnabled(true)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		data, err := encodeResult(res)
		if err != nil {
			t.Fatalf("%s encode: %v", cfg.Name, err)
		}
		back, err := decodeResult(data)
		if err != nil {
			t.Fatalf("%s decode: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Errorf("%s: decoded Result differs from original", cfg.Name)
		}
	}
}

func TestKeyEncodingDistinguishesKeys(t *testing.T) {
	grid := memoGrid(22)
	seen := make(map[string]string)
	for _, cfg := range grid {
		c := cfg
		_, wordBits, err := c.validate()
		if err != nil {
			t.Fatal(err)
		}
		k := canonicalKey(&c, wordBits)
		enc := string(k.encodeKey())
		if prev, dup := seen[enc]; dup {
			t.Errorf("configs %s and %s share a disk key", prev, cfg.Name)
		}
		seen[enc] = cfg.Name
	}
}

// TestDiskKeyGolden pins the on-disk identity of one array solve: the
// namespace and the exact key bytes New publishes under, one 8-byte
// little-endian word per Key field, technology fingerprint first. A
// cache directory filled by an earlier build is only served while these
// bytes stay fixed, so any change to them needs a namespace bump
// (arrayNS) in the same change; otherwise every existing entry is
// silently stranded.
func TestDiskKeyGolden(t *testing.T) {
	const golden = "" +
		"24c8a909a7357b3e000000000000000000000000000000000000000000000000" +
		"0080000000000000000000000000000000000000000000000002000000000000" +
		"0400000000000000000000000000000001000000000000000100000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000"
	cfg := Config{Name: "dcache", Tech: techtest.Node(22), Periph: tech.HP, Cell: tech.HP,
		Bytes: 32 << 10, BlockBits: 512, Assoc: 4, RWPorts: 1}
	_, wordBits, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	k := canonicalKey(&cfg, wordBits)
	if got := hex.EncodeToString(k.encodeKey()); got != golden {
		t.Fatalf("array disk key changed:\n got %s\nwant %s", got, golden)
	}
	store := withStore(t, persist.Options{})
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	key, _ := hex.DecodeString(golden)
	if _, ok := store.Get("array.v1", key); !ok {
		t.Fatal("New published no array.v1 entry under the golden key")
	}
}

func TestDiskHydratedResultsBitIdentical(t *testing.T) {
	grid := memoGrid(28)
	ref := coldResults(t, grid)
	store := withStore(t, persist.Options{})

	// Pass 1: cold synthesis populates both tiers.
	for i, cfg := range grid {
		res, err := New(cfg)
		if err != nil {
			t.Fatalf("%s populate: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(res, ref[i]) {
			t.Fatalf("%s: populated result differs from cold reference", cfg.Name)
		}
	}
	putBase := store.Stats()
	if putBase.Entries == 0 {
		t.Fatal("population pass published no disk entries")
	}

	// Pass 2: memory dropped, disk warm — every solve hydrates from disk
	// and must be bit-identical to cold synthesis.
	ResetCache()
	for i, cfg := range grid {
		res, err := New(cfg)
		if err != nil {
			t.Fatalf("%s hydrate: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(res, ref[i]) {
			t.Errorf("%s: disk-hydrated result differs from cold synthesis", cfg.Name)
		}
	}
	st := store.Stats().Delta(putBase)
	if st.Hits == 0 {
		t.Fatal("hydration pass hit the disk tier zero times")
	}
	if st.Corrupt != 0 {
		t.Fatalf("hydration pass quarantined %d entries unexpectedly", st.Corrupt)
	}

	// Pass 3: memory warm — disk is not consulted again.
	preHits := store.Stats().Hits
	for _, cfg := range grid {
		if _, err := New(cfg); err != nil {
			t.Fatalf("%s warm: %v", cfg.Name, err)
		}
	}
	if got := store.Stats().Hits; got != preHits {
		t.Errorf("memory-warm pass touched disk (%d extra hits)", got-preHits)
	}
}

func TestDiskCorruptionDegradesToColdSynthesis(t *testing.T) {
	grid := memoGrid(22)
	ref := coldResults(t, grid)
	store := withStore(t, persist.Options{})
	for _, cfg := range grid {
		if _, err := New(cfg); err != nil {
			t.Fatalf("%s populate: %v", cfg.Name, err)
		}
	}

	// Damage every published entry three different ways.
	paths, err := faultfs.Entries(store.Dir())
	if err != nil || len(paths) == 0 {
		t.Fatalf("no entries to corrupt (%v)", err)
	}
	for i, p := range paths {
		var err error
		switch i % 3 {
		case 0:
			err = faultfs.FlipBit(p)
		case 1:
			err = faultfs.Truncate(p)
		default:
			err = faultfs.Scribble(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every solve must fall back to cold synthesis with bit-identical
	// results; the corrupt entries are quarantined, never served.
	ResetCache()
	for i, cfg := range grid {
		res, err := New(cfg)
		if err != nil {
			t.Fatalf("%s with corrupt disk: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(res, ref[i]) {
			t.Errorf("%s: result after disk corruption differs from cold synthesis", cfg.Name)
		}
	}
	st := store.Stats()
	if st.Corrupt == 0 {
		t.Fatal("no corrupt entries detected despite damaging every file")
	}

	// The fallback republished fresh entries: a fourth pass hydrates
	// cleanly again.
	ResetCache()
	preCorrupt := store.Stats().Corrupt
	for i, cfg := range grid {
		res, err := New(cfg)
		if err != nil {
			t.Fatalf("%s rehydrate: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(res, ref[i]) {
			t.Errorf("%s: rehydrated result differs", cfg.Name)
		}
	}
	if got := store.Stats().Corrupt; got != preCorrupt {
		t.Errorf("republished entries still corrupt (%d new quarantines)", got-preCorrupt)
	}
}

func TestDiskWriteFaultsNeverFailSynthesis(t *testing.T) {
	grid := memoGrid(90)
	ref := coldResults(t, grid)

	ffs, plan := faultfs.New()
	store := withStore(t, persist.Options{Dir: t.TempDir(), FS: ffs})
	plan.Arm(func(p *faultfs.Plan) { p.WriteErr = faultfs.ErrNoSpace })

	for i, cfg := range grid {
		res, err := New(cfg)
		if err != nil {
			t.Fatalf("%s with ENOSPC: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(res, ref[i]) {
			t.Errorf("%s: result with failing disk differs from cold synthesis", cfg.Name)
		}
	}
	if store.Stats().WriteErrors == 0 {
		t.Fatal("ENOSPC faults armed but no writes were dropped")
	}
	// Nothing was published; a fresh pass after reset is all cold.
	plan.Reset()
	ResetCache()
	preMiss := store.Stats().Misses
	if _, err := New(grid[0]); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Misses; got == preMiss {
		t.Error("expected a disk miss after dropped writes")
	}
}

func TestDiskDisabledWithCacheOff(t *testing.T) {
	store := withStore(t, persist.Options{})
	SetCacheEnabled(false)
	defer SetCacheEnabled(true)
	cfg := memoGrid(22)[0]
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("-no-cache run touched the disk tier: %+v", st)
	}
}
