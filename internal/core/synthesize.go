package core

import "mcpat/internal/component"

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent core configuration returns the one shared *Core instance.
// The result must be treated as immutable (Report and Timings already
// are pure). Errors are never cached and carry the caller's Name, which
// the key (the normalized Config without Tech) leaves out.
func Synthesize(cfg Config) (*Core, error) {
	key := cfg
	if err := key.applyDefaults(); err != nil {
		return nil, err
	}
	node := key.Tech
	key.Tech, key.Name = nil, ""
	return component.Synthesize(component.KindCore, node, key, func() (*Core, error) {
		return New(cfg)
	})
}
