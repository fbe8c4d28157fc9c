package interconnect

import "mcpat/internal/component"

// Memoized fronts of the fabric constructors. The configs have no Name
// field, so their raw values without Tech canonically identify a
// synthesis; keys do not fold zero fields onto their defaults, which at
// worst costs one extra cache entry per spelling of the same
// configuration, never a wrong hit. Results must be treated as
// immutable.

// SynthesizeRouter is the memoized front of NewRouter.
func SynthesizeRouter(cfg RouterConfig) (*Router, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindFabric, cfg.Tech, key, func() (*Router, error) {
		return NewRouter(cfg)
	})
}

// SynthesizeLink is the memoized front of NewLink.
func SynthesizeLink(cfg LinkConfig) (*Link, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindFabric, cfg.Tech, key, func() (*Link, error) {
		return NewLink(cfg)
	})
}

// SynthesizeBus is the memoized front of NewBus.
func SynthesizeBus(cfg BusConfig) (*Link, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindFabric, cfg.Tech, key, func() (*Link, error) {
		return NewBus(cfg)
	})
}

// SynthesizeCrossbar is the memoized front of NewCrossbar.
func SynthesizeCrossbar(cfg CrossbarConfig) (*Link, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindFabric, cfg.Tech, key, func() (*Link, error) {
		return NewCrossbar(cfg)
	})
}
