// Package thermal closes the power-temperature feedback loop around the
// chip model. Subthreshold leakage grows exponentially with junction
// temperature, and junction temperature grows with dissipated power
// through the package's thermal resistance - so the true operating point
// is a fixed point of the two models. McPAT takes temperature as an input;
// this package iterates that input until it is self-consistent, the way
// users pair McPAT with a thermal model.
//
// The package model is the standard lumped resistance:
//
//	Tj = Tambient + P * Rtheta(junction->ambient)
//
// which is accurate for steady-state TDP analysis. For transient traces
// the Model type adds per-block lumped RC nodes (floorplan-derived
// spreading resistances plus a single junction-to-ambient time constant);
// the trace engine steps it once per interval.
//
// Since temperature became a Score-time input (chip.Processor.
// SetScoreTemperature), one thermal analysis costs exactly one chip
// synthesis: every iteration of the fixed point — and every interval of
// a closed-loop trace — is a cheap leakage retune over the same
// synthesized parts.
package thermal

import (
	"fmt"
	"math"

	"mcpat/internal/chip"
)

// Package-model defaults, promoted to named constants so callers (and
// tests) share one source of truth with the solver.
const (
	// DefaultAmbientK is the ambient assumed when PackageSpec.AmbientK is
	// zero: 45 C, a typical inside-chassis temperature.
	DefaultAmbientK = 318.0
	// DefaultMaxIterations bounds the fixed-point iteration when
	// PackageSpec.MaxIterations is zero.
	DefaultMaxIterations = 50
	// DefaultInitialGuessOffsetK is the initial junction-over-ambient
	// guess when PackageSpec.InitialGuessOffsetK is zero.
	DefaultInitialGuessOffsetK = 20.0
	// DefaultConvergenceTolK is the |T_next - T| threshold (K) that
	// declares the fixed point converged when PackageSpec.ConvergenceTolK
	// is zero.
	DefaultConvergenceTolK = 0.1
	// RunawayTjK is the divergence guard: beyond this junction
	// temperature the leakage fixed point does not exist for HP silicon,
	// so the solver reports non-convergence instead of looping.
	RunawayTjK = 450.0
	// dampingFactor mixes the previous iterate into the update:
	// leakage(T) is convex, so an undamped iteration can oscillate near
	// thermal runaway.
	dampingFactor = 0.5
)

// PackageSpec describes the cooling solution.
type PackageSpec struct {
	// AmbientK is the ambient (or case) temperature in kelvin
	// (0 selects DefaultAmbientK).
	AmbientK float64
	// RthetaJA is the junction-to-ambient thermal resistance in K/W.
	// Typical values: ~0.25 K/W for a server heatsink with forced air,
	// ~1.5 K/W for a fanless embedded part.
	RthetaJA float64
	// MaxTjK optionally flags operating points beyond a junction limit
	// (0 disables the check; 378 K = 105 C is a common limit).
	MaxTjK float64

	// MaxIterations bounds the fixed-point iteration
	// (0 selects DefaultMaxIterations).
	MaxIterations int
	// InitialGuessOffsetK is the starting junction-over-ambient guess
	// (0 selects DefaultInitialGuessOffsetK).
	InitialGuessOffsetK float64
	// ConvergenceTolK is the residual below which the fixed point is
	// declared converged (0 selects DefaultConvergenceTolK).
	ConvergenceTolK float64

	// TimeConstS is the lumped junction-to-ambient thermal time constant
	// Rtheta*Ctheta (s) used by transient stepping (Model.Step): block
	// temperatures relax toward their steady state with this first-order
	// lag. 0 means quasi-static — every interval jumps straight to the
	// steady-state temperature, which reproduces the Solve fixed point on
	// constant power.
	TimeConstS float64
}

// withDefaults resolves the zero-valued knobs and validates the spec.
func (pkg PackageSpec) withDefaults() (PackageSpec, error) {
	if pkg.RthetaJA <= 0 {
		return pkg, fmt.Errorf("thermal: RthetaJA must be positive")
	}
	if pkg.AmbientK <= 0 {
		pkg.AmbientK = DefaultAmbientK
	}
	if pkg.MaxIterations <= 0 {
		pkg.MaxIterations = DefaultMaxIterations
	}
	if pkg.InitialGuessOffsetK <= 0 {
		pkg.InitialGuessOffsetK = DefaultInitialGuessOffsetK
	}
	if pkg.ConvergenceTolK <= 0 {
		pkg.ConvergenceTolK = DefaultConvergenceTolK
	}
	return pkg, nil
}

// Result is a converged operating point.
type Result struct {
	TjK        float64 // converged junction temperature
	TDP        float64 // W at the converged temperature
	Leakage    float64 // W at the converged temperature
	Iterations int
	Converged  bool
	OverLimit  bool // TjK exceeds PackageSpec.MaxTjK
	// Residuals records |T_next - T| per iteration — the convergence
	// trajectory, exposed so non-convergence is inspectable rather than
	// silently accepted.
	Residuals []float64
}

// Solve finds the self-consistent junction temperature of a chip's TDP
// operating point. The chip is synthesized exactly once; every iteration
// is a Score-time leakage retune (chip.Processor.SetScoreTemperature)
// over the same synthesized parts — the refactor that turned thermal
// iteration cost from O(full re-synthesis) into O(one cheap Score).
func Solve(cfg chip.Config, pkg PackageSpec) (*Result, error) {
	proc, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	return SolveProcessor(proc, nil, pkg)
}

// SolveProcessor runs the fixed point over an already-synthesized chip.
// With nil stats the iteration balances TDP (peak) power against the
// package — the classic Solve; with stats it balances runtime power,
// which is the steady state a closed-loop trace converges to on a
// constant workload. Every iteration scores the chip into one slab and
// reads the root's totals. The processor's score temperature is left at
// the final iterate.
func SolveProcessor(proc *chip.Processor, stats *chip.Stats, pkg PackageSpec) (*Result, error) {
	pkg, err := pkg.withDefaults()
	if err != nil {
		return nil, err
	}
	tj := pkg.AmbientK + pkg.InitialGuessOffsetK
	res := &Result{}
	var slab chip.Slab
	for iter := 0; iter < pkg.MaxIterations; iter++ {
		res.Iterations = iter + 1
		proc.SetScoreTemperature(tj)
		sc, err := proc.Score(stats, &slab)
		if err != nil {
			return nil, err
		}
		power := sc.Peak(0)
		if stats != nil {
			power = sc.Runtime(0)
		}
		next := pkg.AmbientK + power*pkg.RthetaJA

		res.TDP = power
		res.Leakage = sc.Leakage(0)
		res.Residuals = append(res.Residuals, math.Abs(next-tj))
		if math.Abs(next-tj) < pkg.ConvergenceTolK {
			res.TjK = next
			res.Converged = true
			break
		}
		tj = dampingFactor*tj + (1-dampingFactor)*next
		res.TjK = tj
		if tj > RunawayTjK {
			res.Converged = false
			break
		}
	}
	if pkg.MaxTjK > 0 && res.TjK > pkg.MaxTjK {
		res.OverLimit = true
	}
	return res, nil
}

// Block is one lumped node of the transient model: a named region of the
// die with its own junction-to-ambient spreading resistance.
type Block struct {
	Name string
	// RthetaJA is this block's junction-to-ambient resistance (K/W),
	// derived from its share of the die footprint (see SpreadRtheta).
	RthetaJA float64
}

// SpreadThicknessM is the conduction path length heat from a block
// traverses before reaching the package (die thickness plus thermal
// interface, ~0.5 mm). It sets the lateral 45-degree spreading margin
// that bounds small-block resistances in SpreadRtheta.
const SpreadThicknessM = 5e-4

// SpreadRtheta is the area-ratio spreading rule with lateral conduction:
// a block occupying blockArea of a die of dieArea sees the whole-die
// resistance scaled by the inverse of its effective area share, where
// the effective footprint grows by the 45-degree spreading cone through
// the die (a square block of side w spreads to side w + 2*thickness).
// Without the spreading term a tiny hot block (a bus, the clock spine)
// would see a near-infinite constriction resistance the real laterally
// conducting silicon does not exhibit. The result is clamped to at
// least the whole-die resistance; non-positive areas fall back to it.
func SpreadRtheta(rthetaJA, dieArea, blockArea float64) float64 {
	if dieArea <= 0 || blockArea <= 0 {
		return rthetaJA
	}
	side := math.Sqrt(blockArea) + 2*SpreadThicknessM
	effArea := side * side
	if effArea >= dieArea {
		return rthetaJA
	}
	return rthetaJA * dieArea / effArea
}

// Model is the transient lumped thermal network the trace engine steps
// once per interval: one first-order RC node per block, all sharing the
// package's junction-to-ambient time constant (per-block tau_i =
// Rtheta_i*Ctheta_i is area-invariant under the spreading rule, since
// Rtheta_i ~ 1/A_i and Ctheta_i ~ A_i). A Model is not safe for
// concurrent use.
type Model struct {
	pkg    PackageSpec
	blocks []Block
	temps  []float64
}

// NewModel builds the network. blocks may come from a floorplan (one per
// placed subsystem, resistances via SpreadRtheta) or be a single
// whole-die node (see NewDieModel). Initial block temperatures are
// initialTempK, or ambient when zero.
func NewModel(pkg PackageSpec, blocks []Block, initialTempK float64) (*Model, error) {
	pkg, err := pkg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("thermal: model needs at least one block")
	}
	for _, b := range blocks {
		if b.RthetaJA <= 0 {
			return nil, fmt.Errorf("thermal: block %q needs a positive Rtheta", b.Name)
		}
	}
	if initialTempK <= 0 {
		initialTempK = pkg.AmbientK
	}
	m := &Model{pkg: pkg, blocks: blocks, temps: make([]float64, len(blocks))}
	for i := range m.temps {
		m.temps[i] = initialTempK
	}
	return m, nil
}

// NewDieModel is the whole-die fallback: a single lumped node with the
// package resistance — the Model equivalent of the Solve iteration.
func NewDieModel(pkg PackageSpec, initialTempK float64) (*Model, error) {
	return NewModel(pkg, []Block{{Name: "die", RthetaJA: pkg.RthetaJA}}, initialTempK)
}

// Ambient returns the resolved ambient temperature (K).
func (m *Model) Ambient() float64 { return m.pkg.AmbientK }

// Step advances the network by dt seconds with the given per-block
// powers (W, in block order) and returns the hotspot temperature — the
// maximum block temperature after the step, which is what feeds back
// into the next interval's leakage retune and the DVFS governor. With a
// zero TimeConstS (or non-positive dt) the step is quasi-static: blocks
// jump to their steady-state temperatures. Step never allocates.
func (m *Model) Step(powers []float64, dt float64) float64 {
	n := len(m.blocks)
	if len(powers) < n {
		n = len(powers)
	}
	decay := 0.0 // fraction of the gap to steady state that remains
	if m.pkg.TimeConstS > 0 && dt > 0 {
		decay = math.Exp(-dt / m.pkg.TimeConstS)
	}
	hot := m.pkg.AmbientK
	for i := 0; i < n; i++ {
		ss := m.pkg.AmbientK + powers[i]*m.blocks[i].RthetaJA
		t := ss + (m.temps[i]-ss)*decay
		m.temps[i] = t
		if t > hot {
			hot = t
		}
	}
	return hot
}

// Hotspot returns the current maximum block temperature without
// advancing the model.
func (m *Model) Hotspot() float64 {
	hot := m.pkg.AmbientK
	for _, t := range m.temps {
		if t > hot {
			hot = t
		}
	}
	return hot
}
