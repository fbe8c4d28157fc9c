package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestRoundTrip(t *testing.T) {
	s := openTemp(t, Options{})
	key := []byte("the-key")
	payload := []byte("the-payload-bytes")

	if _, ok := s.Get("ns.v1", key); ok {
		t.Fatal("Get before Put should miss")
	}
	s.Put("ns.v1", key, payload)
	got, ok := s.Get("ns.v1", key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 corrupt", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("resident set = %d entries / %d bytes, want 1 / >0", st.Entries, st.Bytes)
	}
	if !st.Enabled {
		t.Fatal("Stats().Enabled should be true for an open store")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	s.Put("ns", []byte("k"), []byte("v"))
	if _, ok := s.Get("ns", []byte("k")); ok {
		t.Fatal("nil store Get returned ok")
	}
	if st := s.Stats(); st.Enabled {
		t.Fatalf("nil store stats = %+v, want zero", st)
	}
	s.Close()
}

func TestNamespaceIsolation(t *testing.T) {
	s := openTemp(t, Options{})
	key := []byte("shared-key")
	s.Put("a.v1", key, []byte("A"))
	s.Put("b.v1", key, []byte("B"))
	if got, ok := s.Get("a.v1", key); !ok || string(got) != "A" {
		t.Fatalf("ns a = %q/%v, want A", got, ok)
	}
	if got, ok := s.Get("b.v1", key); !ok || string(got) != "B" {
		t.Fatalf("ns b = %q/%v, want B", got, ok)
	}
}

func TestDecodeEntryRejectsDamage(t *testing.T) {
	key := []byte("k1")
	payload := []byte("some payload")
	good := encodeEntry(key, payload)

	if got, err := decodeEntry(good, key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("good entry failed to decode: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)/2],
		"bad magic":      append([]byte("XXXX1\n"), good[6:]...),
		"one byte short": good[:len(good)-1],
	}
	// Bit flip in the payload region.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped
	// Entry for a different key stored at this key's path (hash
	// collision or cross-linked file).
	cases["key mismatch"] = encodeEntry([]byte("other"), payload)

	for name, data := range cases {
		if _, err := decodeEntry(data, key); err == nil {
			t.Errorf("%s: decodeEntry accepted damaged entry", name)
		}
	}
}

func TestCorruptEntryQuarantinedNotServed(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	key := []byte("k")
	s.Put("ns.v1", key, []byte("payload"))

	// Scribble over the published entry on disk.
	path := s.entryPath("ns.v1", key)
	if err := os.WriteFile(path, []byte("garbage garbage garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("ns.v1", key); ok {
		t.Fatal("corrupt entry was served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// Quarantined: the file is gone, the next Get is a clean miss, and a
	// republish works.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still on disk (err=%v)", err)
	}
	if _, ok := s.Get("ns.v1", key); ok {
		t.Fatal("quarantined entry resurrected")
	}
	s.Put("ns.v1", key, []byte("payload"))
	if got, ok := s.Get("ns.v1", key); !ok || string(got) != "payload" {
		t.Fatalf("republish after quarantine failed: %q/%v", got, ok)
	}
}

func TestEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1024)
	// Budget fits ~4 entries; write 12.
	s := openTemp(t, Options{MaxBytes: 4 * 1200})
	for i := 0; i < 12; i++ {
		s.Put("ns.v1", []byte(fmt.Sprintf("key-%02d", i)), payload)
	}
	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions with %d bytes resident over a %d budget", st.Bytes, s.max)
	}
	if st.Bytes > s.max {
		t.Fatalf("resident %d bytes still over budget %d after eviction", st.Bytes, s.max)
	}
	if st.Entries <= 0 {
		t.Fatal("eviction removed everything")
	}
}

func TestEvictionDisabled(t *testing.T) {
	s := openTemp(t, Options{MaxBytes: -1})
	payload := bytes.Repeat([]byte("y"), 2048)
	for i := 0; i < 8; i++ {
		s.Put("ns.v1", []byte(fmt.Sprintf("key-%d", i)), payload)
	}
	if st := s.Stats(); st.Evicted != 0 || st.Entries != 8 {
		t.Fatalf("negative MaxBytes must disable eviction, got %+v", st)
	}
}

func TestTwoStoresShareOneDirectory(t *testing.T) {
	// A CLI and a daemon pointed at the same -cache-dir: entries
	// published by one are visible to the other, and both hold their
	// shared flocks without conflict.
	dir := t.TempDir()
	a := openTemp(t, Options{Dir: dir})
	b := openTemp(t, Options{Dir: dir})
	key := []byte("cross-process")
	a.Put("ns.v1", key, []byte("hello"))
	if got, ok := b.Get("ns.v1", key); !ok || string(got) != "hello" {
		t.Fatalf("second store missed entry published by first: %q/%v", got, ok)
	}
}

// TestDefaultStatsDeltaAcrossStores swaps the default store inside a
// measured span, as EnablePersistentCache does: the newer store's
// counters start below the older one's, and the span's delta must be
// the newer store's own counts, not a wrapped difference.
func TestDefaultStatsDeltaAcrossStores(t *testing.T) {
	a := openTemp(t, Options{})
	b := openTemp(t, Options{})
	prev := SetDefault(a)
	defer SetDefault(prev)
	for i := 0; i < 3; i++ {
		a.Get("ns.v1", []byte(fmt.Sprintf("missing-%d", i)))
	}
	a.Put("ns.v1", []byte("k"), []byte("v"))
	a.Get("ns.v1", []byte("k"))
	before := DefaultStats()

	SetDefault(b)
	b.Get("ns.v1", []byte("absent"))
	b.Put("ns.v1", []byte("k"), []byte("v"))
	d := DefaultStats().Delta(before)
	want := Stats{Misses: 1, Bytes: b.Stats().Bytes, Entries: 1, Enabled: true}
	if d != want {
		t.Errorf("delta across a store swap = %+v, want %+v", d, want)
	}
}

func TestOpenRejectsFilePath(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: file}); err == nil {
		t.Fatal("Open on a plain file should fail so callers can degrade")
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "tmp", "put-1234-1.tmp")
	if err := os.WriteFile(stale, []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTemp(t, Options{Dir: dir})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open (err=%v)", err)
	}
}

func TestMeasureOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		s.Put("ns.v1", []byte(fmt.Sprintf("k%d", i)), []byte("payload"))
	}
	want := s.Stats()
	s2 := openTemp(t, Options{Dir: dir})
	got := s2.Stats()
	if got.Entries != want.Entries || got.Bytes != want.Bytes {
		t.Fatalf("reopened store measured %d/%d, want %d/%d",
			got.Entries, got.Bytes, want.Entries, want.Bytes)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openTemp(t, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("key-%d", i%10))
				payload := []byte(fmt.Sprintf("payload-%d", i%10))
				s.Put("ns.v1", key, payload)
				if got, ok := s.Get("ns.v1", key); ok && string(got) != string(payload) {
					t.Errorf("got wrong payload %q for %q", got, key)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDefaultStoreRegistry(t *testing.T) {
	if Default() != nil {
		t.Fatal("default store should start nil in tests")
	}
	s := openTemp(t, Options{})
	prev := SetDefault(s)
	defer SetDefault(prev)
	if Default() != s {
		t.Fatal("SetDefault did not install the store")
	}
	if !DefaultStats().Enabled {
		t.Fatal("DefaultStats should be enabled with a store installed")
	}
	if got := SetDefault(nil); got != s {
		t.Fatalf("SetDefault returned %v, want the previous store", got)
	}
	if DefaultStats().Enabled {
		t.Fatal("DefaultStats should be disabled after SetDefault(nil)")
	}
}

func TestSanitizeNS(t *testing.T) {
	for in, want := range map[string]string{
		"array.v1":    "array.v1",
		"tmp":         "ns_tmp",
		"quarantine":  "ns_quarantine",
		"":            "ns_",
		"weird/ns !":  "weird_ns__",
		"subsys-mc.1": "subsys-mc.1",
	} {
		if got := sanitizeNS(in); got != want {
			t.Errorf("sanitizeNS(%q) = %q, want %q", in, got, want)
		}
	}
}
