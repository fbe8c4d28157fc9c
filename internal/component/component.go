// Package component holds what every synthesized chip subsystem shares:
// the Kind of subsystem it belongs to, and the subsystem-level synthesis
// memo that makes design-space sweeps incremental.
//
// McPAT's composability comes from one uniform result shape: every block
// — wire, array, functional unit, core, fabric — reduces to the same
// power/area/timing triple, so a chip is just a tree of such results.
// Each chip subsystem is built in two phases:
//
//   - Synthesize: config-dependent and expensive. Geometry, energies and
//     leakage are solved once per distinct configuration (what core.New,
//     cache.New, the interconnect constructors, mc.New and clock.New do).
//     Synthesis results are memoized process-wide (see Synthesize), keyed
//     by a canonical config value plus the technology node's fingerprint.
//
//   - Score: cheap and pure. Every chip part has one walk that adds its
//     report nodes and gives each leaf its dynamic power under an
//     activity: a chip compiles its report by walking its parts at the
//     peak (TDP) activity, and scores it by walking them again at the
//     runtime activity. Walking never mutates a synthesized model, so
//     one memoized instance may be shared by any number of chips
//     concurrently.
//
// A DSE sweep that varies only one subsystem's knobs re-synthesizes only
// that subsystem — delta re-evaluation falls out of the cache keying
// rather than from any sweep-specific logic.
package component

// Kind identifies the subsystem family a synthesized component belongs
// to. The memo layer keeps per-kind reuse counters so sweeps can report
// which subsystems were actually re-synthesized.
type Kind uint8

const (
	// KindCore is a processor core model (core.Core).
	KindCore Kind = iota
	// KindCache is a shared cache level (cache.Cache).
	KindCache
	// KindFabric covers on-chip interconnect pieces: routers, links,
	// buses, and crossbars.
	KindFabric
	// KindMC covers the off-chip interfaces: memory controller, NIU,
	// and PCIe.
	KindMC
	// KindClock is the chip-wide clock distribution network.
	KindClock

	numKinds
)

// NumKinds is the number of distinct component kinds tracked by the
// cache counters.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindCache:
		return "cache"
	case KindFabric:
		return "fabric"
	case KindMC:
		return "mc"
	case KindClock:
		return "clock"
	}
	return "unknown"
}
