// Package memo is the process-wide synthesis memo behind both reuse
// tiers of the model: the array tier caches individual optimizer solves
// (internal/array) and the subsystem tier caches whole synthesized
// cores, caches, fabric pieces, controllers and clock networks
// (internal/component). Each tier is one Table.
//
// A Table maps canonical keys to synthesized values. Concurrent lookups
// of one key share a single in-flight synthesis (single flight): only
// the goroutine that owns a key's flight runs the synthesis, and every
// other caller waits for its value.
//
// Correctness properties, shared by both tiers:
//   - Only successful syntheses are cached. Errors carry the caller's
//     Name, which keys leave out, so error values are never shared: a
//     waiter that joined a failing flight re-runs the synthesis itself
//     to get an error naming its own structure.
//   - A panic inside a synthesis (contained further up, at the chip
//     boundary) releases every waiter and leaves no entry behind.
//   - Technology-node retunes invalidate naturally: keys embed the
//     node's value fingerprint, recomputed per lookup.
package memo

import (
	"sync"
	"sync/atomic"
)

// Table is one memo tier: a lock-striped, single-flight map from
// canonical keys to synthesized values, with an enable switch and one
// or more counter sets.
type Table[K comparable, V any] struct {
	disabled atomic.Bool
	private  func(V) V
	sets     []counters
	stripes  []stripe[K, V]
}

type stripe[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
}

// entry is one key's flight. val and ok are final once done is closed;
// ok is false when the flight failed or panicked, and such an entry has
// already left the table.
type entry[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

type counters struct {
	hits, misses, shared, bypassed atomic.Uint64
}

// NewTable returns an empty, enabled table with the given numbers of
// lock stripes and counter sets. private, when non-nil, copies every
// value the table hands out, for tiers whose callers may mutate what
// they get; with a nil private, every caller shares the stored value.
func NewTable[K comparable, V any](stripes, sets int, private func(V) V) *Table[K, V] {
	return &Table[K, V]{
		private: private,
		sets:    make([]counters, sets),
		stripes: make([]stripe[K, V], stripes),
	}
}

// Do returns the value memoized under key, running synth at most once
// per key across the process. The lookup is counted on counter set set
// and locks stripe (taken modulo the stripe count).
//
// With the table disabled, Do runs synth uncached and counts a bypass.
func (t *Table[K, V]) Do(set int, stripe uint64, key K, synth func() (V, error)) (V, error) {
	c := &t.sets[set]
	if t.disabled.Load() {
		c.bypassed.Add(1)
		return synth()
	}
	s := &t.stripes[stripe%uint64(len(t.stripes))]

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
		default:
			// Joining a flight started by a concurrent caller.
			c.shared.Add(1)
			<-e.done
		}
		if !e.ok {
			// The shared flight failed. Its error names the other
			// caller's structure, so re-run for a correctly attributed
			// error (failures are rare and not hot).
			c.bypassed.Add(1)
			return synth()
		}
		c.hits.Add(1)
		return t.handOut(e.val), nil
	}
	e := &entry[V]{done: make(chan struct{})}
	if s.entries == nil {
		s.entries = make(map[K]*entry[V])
	}
	s.entries[key] = e
	s.mu.Unlock()

	// This goroutine owns the flight. If synth panics, the deferred
	// drop removes the entry and releases the waiters, who re-run synth
	// themselves rather than deadlock.
	landed := false
	defer func() {
		if !landed {
			s.drop(key, e)
		}
	}()
	v, err := synth()
	landed = true
	if err != nil {
		s.drop(key, e)
		var zero V
		return zero, err
	}
	c.misses.Add(1)
	e.val, e.ok = v, true
	close(e.done)
	return t.handOut(v), nil
}

func (t *Table[K, V]) handOut(v V) V {
	if t.private != nil {
		return t.private(v)
	}
	return v
}

// drop removes a flight that did not land and releases its waiters. A
// Reset during the flight may have given the key to a newer flight,
// which stays.
func (s *stripe[K, V]) drop(key K, e *entry[V]) {
	s.mu.Lock()
	if s.entries[key] == e {
		delete(s.entries, key)
	}
	s.mu.Unlock()
	close(e.done)
}

// Stats returns the counters of one set.
func (t *Table[K, V]) Stats(set int) Stats {
	c := &t.sets[set]
	return Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Shared:   c.shared.Load(),
		Bypassed: c.bypassed.Load(),
	}
}

// Len returns the number of resident entries, flights in progress
// included.
func (t *Table[K, V]) Len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Reset drops every entry and zeroes every counter set. Flights in
// progress still complete for their waiters, but their values do not
// enter the emptied table.
func (t *Table[K, V]) Reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		s.entries = nil
		s.mu.Unlock()
	}
	for i := range t.sets {
		c := &t.sets[i]
		c.hits.Store(0)
		c.misses.Store(0)
		c.shared.Store(0)
		c.bypassed.Store(0)
	}
}

// SetEnabled turns caching on or off (it is on after NewTable) and
// returns the previous setting. Disabling keeps resident entries;
// combine it with Reset for a cold, cache-free run.
func (t *Table[K, V]) SetEnabled(enabled bool) bool {
	return !t.disabled.Swap(!enabled)
}

// Stats is a snapshot of one counter set.
type Stats struct {
	// Hits counts lookups served from the table (including Shared).
	Hits uint64
	// Misses counts lookups that filled the table with a synthesis.
	Misses uint64
	// Shared counts hits that joined a flight started by a concurrent
	// caller instead of finding a landed entry: the single-flight
	// deduplications.
	Shared uint64
	// Bypassed counts syntheses that ran uncached: caching disabled, or
	// a waiter re-running a synthesis whose shared flight failed.
	Bypassed uint64
}

// HitRate returns the fraction of table-served lookups among all
// lookups that consulted the table.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Delta returns the counter difference s - prev, for reporting one
// sweep's or one serving window's memo behavior. A counter that reads
// lower than in prev was reset in between, so its delta is its current
// value (Prometheus's rule for counter resets).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:     since(s.Hits, prev.Hits),
		Misses:   since(s.Misses, prev.Misses),
		Shared:   since(s.Shared, prev.Shared),
		Bypassed: since(s.Bypassed, prev.Bypassed),
	}
}

// since is one counter's movement from prev to cur; a drop is a reset.
func since(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}
