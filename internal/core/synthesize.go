package core

import "mcpat/internal/component"

// synthKey canonically identifies one core synthesis. The embedded
// Config is normalized (every default applied) with Tech replaced by the
// node's value fingerprint and Name cleared — Name only labels reports
// and errors, it never affects geometry or energy.
type synthKey struct {
	TechFP uint64
	Cfg    Config
}

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent core configuration returns the one shared *Core instance.
// The result must be treated as immutable (Report and Timings already
// are pure). Errors are never cached and carry the caller's Name.
func Synthesize(cfg Config) (*Core, error) {
	norm := cfg
	if err := norm.applyDefaults(); err != nil {
		return nil, err
	}
	key := synthKey{TechFP: norm.Tech.Fingerprint(), Cfg: norm}
	key.Cfg.Tech = nil
	key.Cfg.Name = ""
	return component.Memoize(component.KindCore, key, func() (*Core, error) {
		return New(cfg)
	})
}
