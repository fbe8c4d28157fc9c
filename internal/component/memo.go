package component

import (
	"mcpat/internal/memo"
	"mcpat/internal/tech"
)

// Subsystem-level memoized synthesis.
//
// This is the second table of internal/memo, one level above the array
// tier: instead of caching individual SRAM solves, it caches whole
// synthesized subsystems (a core with its twenty arrays, a banked cache,
// a router). A DSE candidate that shares a subsystem configuration with
// a previously evaluated candidate skips that subsystem's synthesis
// entirely — it does not even consult the array cache — so a sweep that
// varies only NoC parameters re-synthesizes fabrics and clocks but never
// cores or caches.
//
// Differences from the array tier, all deliberate:
//
//   - Values are shared, not cloned. Synthesized subsystems are
//     immutable after construction (the Score phase is pure), so hits
//     return the same instance the one real synthesis produced. This is
//     what makes a cache hit O(map lookup) regardless of how expensive
//     the subsystem was to build.
//
//   - Keys are supplied by the caller. Each subsystem package owns its
//     canonical key (its normalized Config with Tech and Name cleared),
//     because only it knows which fields its constructor reads;
//     Synthesize adds the tech.Node value fingerprint. The key rules
//     mirror internal/array/key.go: two configs that can synthesize
//     different results must key differently; Name never keys (it only
//     labels reports and errors).
//
//   - Counters and lock stripes are per kind. A caller's key is an any,
//     which cannot be hashed here without reflection, and contention
//     concentrates within one kind only during homogeneous sweeps,
//     where the critical section is a single map operation.

// memoKey scopes a caller's key to its kind and node. An interface
// compares dynamic types too, so config types sharing a kind (router
// and link, NIU and PCIe) never meet even with equal field values.
type memoKey struct {
	kind Kind
	fp   uint64 // tech.Node value fingerprint
	key  any    // comparable, caller-supplied canonical config
}

// subsystems is the subsystem tier: one lock stripe and one counter set
// per kind, and hits share the stored value.
var subsystems = memo.NewTable[memoKey, any](NumKinds, NumKinds, nil)

// Synthesize is the memoized front every subsystem constructor shares:
// it runs build at most once per (kind, node fingerprint, key) across
// the process, and concurrent calls with one key share a single
// in-flight synthesis. key is the caller's config with Tech cleared and
// every field its constructor ignores zeroed. The returned value is
// shared: callers must treat it as immutable. A nil node runs build
// uncached and uncounted, so the constructor reports its own error.
func Synthesize[C comparable, T any](kind Kind, node *tech.Node, key C, build func() (T, error)) (T, error) {
	if node == nil {
		return build()
	}
	v, err := subsystems.Do(int(kind), uint64(kind), memoKey{kind, node.Fingerprint(), key}, func() (any, error) { return build() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// KindStats is the counter snapshot for one component kind.
type KindStats = memo.Stats

// CacheStats is a snapshot of the subsystem synthesis-cache counters,
// broken down by component kind.
type CacheStats struct {
	// Kinds holds per-kind counters indexed by Kind.
	Kinds [NumKinds]KindStats
	// Entries is the number of resident cached subsystems (a gauge, not
	// a counter; Delta keeps the newer snapshot's value).
	Entries int
}

// Total sums the per-kind counters.
func (s CacheStats) Total() KindStats {
	var t KindStats
	for _, k := range s.Kinds {
		t.Hits += k.Hits
		t.Misses += k.Misses
		t.Shared += k.Shared
		t.Bypassed += k.Bypassed
	}
	return t
}

// HitRate returns the fraction of cache-served syntheses among all
// syntheses that consulted the cache.
func (s CacheStats) HitRate() float64 { return s.Total().HitRate() }

// Delta returns the counter difference s - prev, for reporting one
// sweep's cache behavior. Entries is carried from s unchanged.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	d := CacheStats{Entries: s.Entries}
	for i := range s.Kinds {
		d.Kinds[i] = s.Kinds[i].Delta(prev.Kinds[i])
	}
	return d
}

// Stats returns the current global cache counters.
func Stats() CacheStats {
	s := CacheStats{Entries: subsystems.Len()}
	for i := range s.Kinds {
		s.Kinds[i] = subsystems.Stats(i)
	}
	return s
}

// ResetCache drops every cached subsystem and zeroes the counters.
func ResetCache() { subsystems.Reset() }

// SetCacheEnabled turns subsystem-result caching on or off (it is on by
// default) and returns the previous setting. It switches only this
// tier, not the array tier below it. Disabling does not drop resident
// entries; combine with ResetCache for a cold, cache-free run.
func SetCacheEnabled(enabled bool) bool { return subsystems.SetEnabled(enabled) }
