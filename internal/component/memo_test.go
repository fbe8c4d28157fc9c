package component

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// resetForTest gives each test a clean, enabled cache.
func resetForTest(t *testing.T) {
	t.Helper()
	prev := SetCacheEnabled(true)
	ResetCache()
	t.Cleanup(func() {
		SetCacheEnabled(prev)
		ResetCache()
	})
}

type testKey struct{ ID int }

// otherKey has testKey's shape but is a distinct config type, like the
// fabric and off-chip families that share a kind.
type otherKey struct{ ID int }

func TestMemoizeHitReturnsSharedValue(t *testing.T) {
	resetForTest(t)
	node := techtest.Node(22)
	var runs atomic.Int32
	synth := func() (*int, error) {
		runs.Add(1)
		v := 42
		return &v, nil
	}
	a, err := Synthesize(KindCore, node, testKey{1}, synth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(KindCore, node, testKey{1}, synth)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("synthesis ran %d times, want 1", runs.Load())
	}
	if a != b {
		t.Error("hit returned a different instance; subsystem values must be shared")
	}
	cs := Stats()
	if k := cs.Kinds[KindCore]; k.Hits != 1 || k.Misses != 1 {
		t.Errorf("counters = %+v, want 1 hit / 1 miss", k)
	}
	if cs.Entries != 1 {
		t.Errorf("Entries = %d, want 1", cs.Entries)
	}
}

func TestMemoizeKeysAndKindsAreDistinct(t *testing.T) {
	resetForTest(t)
	node := techtest.Node(22)
	mk := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	if v, _ := Synthesize(KindCore, node, testKey{1}, mk(10)); v != 10 {
		t.Fatalf("got %d", v)
	}
	// Same key value under a different kind must not collide.
	if v, _ := Synthesize(KindCache, node, testKey{1}, mk(20)); v != 20 {
		t.Errorf("kind collision: got %d, want 20", v)
	}
	// Different key under the same kind must not collide.
	if v, _ := Synthesize(KindCore, node, testKey{2}, mk(30)); v != 30 {
		t.Errorf("key collision: got %d, want 30", v)
	}
	// A distinct config type with identical field values under the same
	// kind must not collide either.
	if v, _ := Synthesize(KindCore, node, otherKey{1}, mk(40)); v != 40 {
		t.Errorf("config-type collision: got %d, want 40", v)
	}
	if cs := Stats(); cs.Entries != 4 || cs.Total().Misses != 4 {
		t.Errorf("stats = %+v, want 4 entries / 4 misses", cs)
	}

	// The node enters the key by value fingerprint: two separately
	// built nodes of one feature size share an entry.
	a, err := tech.ByFeature(22)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tech.ByFeature(22)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("ByFeature returned one shared node; the case needs two")
	}
	if v, _ := Synthesize(KindClock, a, testKey{1}, mk(50)); v != 50 {
		t.Fatalf("first node got %d, want 50", v)
	}
	if v, _ := Synthesize(KindClock, b, testKey{1}, mk(60)); v != 50 {
		t.Errorf("equal node got %d, want the shared 50", v)
	}
	if k := Stats().Kinds[KindClock]; k != (KindStats{Hits: 1, Misses: 1}) {
		t.Errorf("clock counters = %+v, want 1 miss then 1 hit", k)
	}

	// A nil node runs build every time, uncached, so the constructor
	// reports its own error, and moves no counter.
	before := Stats()
	runs := 0
	for i := 0; i < 2; i++ {
		if _, err := Synthesize(KindMC, nil, testKey{1}, func() (int, error) { runs++; return runs, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Errorf("nil node: build ran %d times, want 2 (uncached)", runs)
	}
	errNoNode := errors.New("technology node required")
	if _, err := Synthesize(KindMC, nil, testKey{1}, func() (int, error) { return 0, errNoNode }); !errors.Is(err, errNoNode) {
		t.Errorf("nil node: err = %v, want the constructor's", err)
	}
	if after := Stats(); after != before {
		t.Errorf("nil node moved the counters: %+v -> %+v", before, after)
	}
}

func TestCacheStatsDeltaAndHitRate(t *testing.T) {
	var a, b CacheStats
	a.Kinds[KindCore] = KindStats{Hits: 10, Misses: 4, Shared: 1, Bypassed: 2}
	a.Entries = 3
	b.Kinds[KindCore] = KindStats{Hits: 25, Misses: 5, Shared: 2, Bypassed: 2}
	b.Kinds[KindCache] = KindStats{Hits: 5, Misses: 5}
	b.Entries = 7
	d := b.Delta(a)
	if got := d.Kinds[KindCore]; got != (KindStats{Hits: 15, Misses: 1, Shared: 1, Bypassed: 0}) {
		t.Errorf("delta core = %+v", got)
	}
	if got := d.Kinds[KindCache]; got != (KindStats{Hits: 5, Misses: 5}) {
		t.Errorf("delta cache = %+v", got)
	}
	if d.Entries != 7 {
		t.Errorf("delta entries = %d, want newer snapshot's 7", d.Entries)
	}
	if hr := d.HitRate(); hr != float64(20)/float64(26) {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindCore: "core", KindCache: "cache", KindFabric: "fabric",
		KindMC: "mc", KindClock: "clock",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if fmt.Sprint(Kind(99)) != "unknown" {
		t.Errorf("out-of-range kind should print unknown")
	}
}
