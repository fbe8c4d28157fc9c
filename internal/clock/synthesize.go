package clock

import "mcpat/internal/component"

// Synthesize is the memoized front of New: repeated synthesis of an
// equivalent clock-network configuration returns the one shared
// *Network instance, which must be treated as immutable. Because the
// key (the raw Config without Tech) embeds ChipArea, the clock
// re-synthesizes whenever the floorplan changes — that is correct and
// cheap; the cache earns its keep on repeated evaluation of one chip.
func Synthesize(cfg Config) (*Network, error) {
	key := cfg
	key.Tech = nil
	return component.Synthesize(component.KindClock, cfg.Tech, key, func() (*Network, error) {
		return New(cfg)
	})
}
