package array

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcpat/internal/memo"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// memoGrid is a spread of configs covering every synthesis path (RAM,
// eDRAM, set-associative cache, CAM, DFF) and several organizations per
// path, used by the equivalence and concurrency tests.
func memoGrid(nm float64) []Config {
	n := techtest.Node(nm)
	var grid []Config
	for _, bytes := range []int{8 * 1024, 32 * 1024, 256 * 1024} {
		for _, assoc := range []int{0, 2, 8} {
			grid = append(grid, Config{
				Name: "ram", Tech: n, Periph: tech.HP, Cell: tech.HP,
				Bytes: bytes, BlockBits: 512, Assoc: assoc, RWPorts: 1,
			})
		}
	}
	grid = append(grid,
		Config{Name: "edram-llc", Tech: n, Periph: tech.HP, Cell: tech.LSTP,
			Bytes: 1 << 20, BlockBits: 512, CellKind: EDRAM, RWPorts: 1},
		Config{Name: "tlb", Tech: n, Periph: tech.HP, Cell: tech.HP,
			Entries: 64, EntryBits: 52, FullyAssoc: true, RWPorts: 1, SearchPorts: 1},
		Config{Name: "fetch-buf", Tech: n, Periph: tech.HP, Cell: tech.HP,
			Entries: 16, EntryBits: 128, CellKind: DFF, RWPorts: 1, RdPorts: 2},
		Config{Name: "rf", Tech: n, Periph: tech.HP, Cell: tech.HP,
			Entries: 128, EntryBits: 64, RdPorts: 4, WrPorts: 2, Obj: OptDelay},
	)
	return grid
}

// TestCachedEquivalence is the bit-identity contract: for every config in
// the grid, the result served through the cache must be byte-for-byte
// equal to a direct uncached synthesis.
func TestCachedEquivalence(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()

	for _, cfg := range memoGrid(45) {
		cold, err := New(cfg) // populates the cache (miss)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		warm, err := New(cfg) // served from the cache (hit)
		if err != nil {
			t.Fatalf("%s cached: %v", cfg.Name, err)
		}
		SetCacheEnabled(false)
		direct, err := New(cfg) // real synthesis, cache bypassed
		SetCacheEnabled(true)
		if err != nil {
			t.Fatalf("%s uncached: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(cold, direct) {
			t.Errorf("%s: first (caching) result differs from uncached synthesis", cfg.Name)
		}
		if !reflect.DeepEqual(warm, direct) {
			t.Errorf("%s: cache hit differs from uncached synthesis\n hit: %+v\n raw: %+v",
				cfg.Name, warm, direct)
		}
	}
	if s := Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", s)
	}
}

// TestCachedEquivalenceFreshNodes checks that separately constructed
// technology nodes with equal parameters share cache entries — the DSE
// situation, where every candidate chip materializes its own *tech.Node.
func TestCachedEquivalenceFreshNodes(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()

	cfg := Config{Name: "l2", Tech: techtest.Node(32), Periph: tech.HP,
		Cell: tech.LSTP, Bytes: 256 * 1024, BlockBits: 512, Assoc: 8, RWPorts: 1}
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tech = techtest.Node(32) // fresh pointer, identical values
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("equal-valued fresh nodes produced different results")
	}
	if s := Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("fresh node should hit the existing entry: %+v", s)
	}

	// A retuned node must key differently (natural invalidation).
	cfg.Tech = techtest.Node(32)
	cfg.Tech.OverrideVdd(tech.HP, 0.8)
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.Misses != 2 {
		t.Errorf("retuned node should miss: %+v", s)
	}
}

// TestCachedHitsAreIsolated verifies a caller mutating a returned Result
// cannot corrupt what later callers receive.
func TestCachedHitsAreIsolated(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()

	cfg := l1Cfg(32 * 1024)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Area
	a.Area = -1
	a.Tag.Area = -1
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Area != want || b.Tag.Area < 0 {
		t.Error("mutating a cache hit leaked into a later hit")
	}
}

// TestConcurrentCachedEquivalence hammers the cache from parallel workers
// (the explore.SearchContext pattern) and checks every worker observes
// results identical to a serial uncached reference. Run under -race this
// also proves the single-flight path is data-race free.
func TestConcurrentCachedEquivalence(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))

	grid := memoGrid(65)
	SetCacheEnabled(false)
	ref := make([]*Result, len(grid))
	for i, cfg := range grid {
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		ref[i] = r
	}
	SetCacheEnabled(true)
	ResetCache()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, cfg := range grid {
					got, err := New(cfg)
					if err != nil {
						errs <- cfg.Name + ": " + err.Error()
						return
					}
					if !reflect.DeepEqual(got, ref[i]) {
						errs <- cfg.Name + ": concurrent cached result differs from serial uncached"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	s := Stats()
	if want := uint64(len(grid)); s.Misses != want {
		t.Errorf("every distinct config should be solved exactly once: misses=%d want=%d", s.Misses, want)
	}
	if s.Entries != len(grid) {
		t.Errorf("resident entries=%d want=%d", s.Entries, len(grid))
	}
	if got, want := s.Hits+s.Misses, uint64(workers*3*len(grid)); got != want {
		t.Errorf("hits+misses=%d want=%d", got, want)
	}
}

// TestCacheFailedSolvesNotCached: a config that fails synthesis must not
// leave an entry behind, and the error must carry the caller's own Name.
func TestCacheFailedSolvesNotCached(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()

	// Associative caches must be byte-sized: entry-capacity + Assoc passes
	// validate() but fails inside the synthesis the cache fronts.
	bad := Config{Name: "first", Tech: techtest.Node(45), Periph: tech.HP,
		Entries: 64, EntryBits: 64, Assoc: 2, RWPorts: 1}
	if _, err := New(bad); err == nil {
		t.Fatal("expected synthesis error")
	}
	if s := Stats(); s.Entries != 0 {
		t.Errorf("failed solve left %d cache entries", s.Entries)
	}
	bad.Name = "second"
	_, err := New(bad)
	if err == nil {
		t.Fatal("expected error on retry")
	}
	if got := err.Error(); !strings.Contains(got, "second") || strings.Contains(got, "first") {
		t.Errorf("error not attributed to the retrying caller: %q", got)
	}
}

// TestResetCacheAndDisable pins the control-surface semantics: Reset
// zeroes counters and drops entries; disabling counts bypasses and does
// not populate the table.
func TestResetCacheAndDisable(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	ResetCache()

	cfg := l1Cfg(16 * 1024)
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after one solve: %+v", s)
	}
	ResetCache()
	if s := Stats(); s != (CacheStats{}) {
		t.Fatalf("after reset: %+v", s)
	}

	if prev := SetCacheEnabled(false); !prev {
		t.Error("cache should have been enabled before")
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.Bypassed != 1 || s.Entries != 0 || s.Hits+s.Misses != 0 {
		t.Errorf("disabled solve should only bypass: %+v", s)
	}
	if SetCacheEnabled(true) {
		t.Error("cache still enabled after disabling")
	}
}

func TestCacheStatsDeltaAndHitRate(t *testing.T) {
	prev := CacheStats{Stats: memo.Stats{Hits: 10, Misses: 5, Shared: 2, Bypassed: 1}, Entries: 5}
	now := CacheStats{Stats: memo.Stats{Hits: 40, Misses: 15, Shared: 4, Bypassed: 1}, Entries: 15}
	d := now.Delta(prev)
	want := CacheStats{Stats: memo.Stats{Hits: 30, Misses: 10, Shared: 2, Bypassed: 0}, Entries: 15}
	if d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
	if got := d.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if got := (CacheStats{}).HitRate(); got != 0 {
		t.Errorf("empty HitRate = %v, want 0", got)
	}
}
