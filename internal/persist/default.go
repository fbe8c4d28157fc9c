package persist

import "sync/atomic"

// The process-wide default store is the wiring point between the
// synthesis memo layers and disk: internal/memo consults Default() on
// every memory miss of either tier. No default (the zero state) means
// no disk tier — exactly the pre-persistence behavior.

var defaultStore atomic.Pointer[Store]

// SetDefault installs s as the process-wide disk tier (nil disables
// it) and returns the previous store, which the caller owns (Close it
// if it is being replaced rather than kept).
func SetDefault(s *Store) *Store {
	return defaultStore.Swap(s)
}

// Default returns the process-wide disk tier, or nil when none is
// configured. All Store methods are nil-safe, so callers may use the
// result unconditionally.
func Default() *Store { return defaultStore.Load() }

// DefaultStats returns the default store's counters (the zero Stats,
// Enabled=false, when no disk tier is configured).
func DefaultStats() Stats { return Default().Stats() }
