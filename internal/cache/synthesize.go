package cache

import "mcpat/internal/component"

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent cache configuration returns the one shared *Cache instance.
// The result must be treated as immutable (Report, AccessTime and Cfg
// already are pure). Errors are never cached and carry the caller's
// Name, which the key (the normalized Config without Tech) leaves out.
func Synthesize(cfg Config) (*Cache, error) {
	norm := cfg
	if err := norm.applyDefaults(); err != nil {
		return nil, err
	}
	key := norm
	key.Tech, key.Name = nil, ""
	// CellHP only steers the cell-device resolution applyDefaults just
	// performed; CellDev now carries the outcome.
	key.CellHP = false
	if !key.Directory {
		key.Sharers = 0 // unread without a directory
	}
	return component.Synthesize(component.KindCache, norm.Tech, key, func() (*Cache, error) {
		return New(cfg)
	})
}
