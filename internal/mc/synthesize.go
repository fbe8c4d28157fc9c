package mc

import (
	"mcpat/internal/component"
	"mcpat/internal/power"
)

// Memoized fronts of the off-chip interface constructors. The configs
// have no Name field, so their raw values without Tech canonically
// identify a synthesis; keys do not fold zero fields onto their
// defaults, which at worst costs one extra cache entry per spelling of
// the same configuration, never a wrong hit. Results must be treated as
// immutable.

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent memory-controller configuration returns the one shared
// *Controller instance.
func Synthesize(cfg Config) (*Controller, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindMC, cfg.Tech, key, func() (*Controller, error) {
		return New(cfg)
	})
}

// SynthesizeNIU is the memoized front of NewNIU.
func SynthesizeNIU(cfg NIUConfig) (power.PAT, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindMC, cfg.Tech, key, func() (power.PAT, error) {
		return NewNIU(cfg)
	})
}

// SynthesizePCIe is the memoized front of NewPCIe.
func SynthesizePCIe(cfg PCIeConfig) (power.PAT, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindMC, cfg.Tech, key, func() (power.PAT, error) {
		return NewPCIe(cfg)
	})
}
