package component

import (
	"fmt"
	"sync/atomic"
	"testing"
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

func TestMemoizeHitReturnsSharedValue(t *testing.T) {
	resetForTest(t)
	var runs atomic.Int32
	synth := func() (*int, error) {
		runs.Add(1)
		v := 42
		return &v, nil
	}
	a, err := Memoize(KindCore, testKey{1}, synth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Memoize(KindCore, testKey{1}, synth)
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
	mk := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	if v, _ := Memoize(KindCore, testKey{1}, mk(10)); v != 10 {
		t.Fatalf("got %d", v)
	}
	// Same key value under a different kind must not collide.
	if v, _ := Memoize(KindCache, testKey{1}, mk(20)); v != 20 {
		t.Errorf("kind collision: got %d, want 20", v)
	}
	// Different key under the same kind must not collide.
	if v, _ := Memoize(KindCore, testKey{2}, mk(30)); v != 30 {
		t.Errorf("key collision: got %d, want 30", v)
	}
	if cs := Stats(); cs.Entries != 3 || cs.Total().Misses != 3 {
		t.Errorf("stats = %+v, want 3 entries / 3 misses", cs)
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
