// Package mcpat is an integrated power, area, and timing (PAT) modeling
// framework for multicore and manycore processor architectures, a Go
// implementation of the McPAT framework (Li et al., MICRO 2009).
//
// McPAT models the complete chip: in-order and out-of-order cores
// (instruction fetch with branch prediction, renaming, scheduling,
// execution, load/store, and memory management units), shared caches with
// coherence directories, networks-on-chip (buses, crossbars, and 2D
// meshes, optionally clustered), memory controllers, I/O controllers, and
// the clock distribution network. Architectural components are mapped
// onto circuit-level structures (memory arrays, complex logic, wires,
// clock trees) and then onto ITRS-style device and interconnect
// technology parameters from 180 nm down to 22 nm, covering the HP, LSTP,
// and LOP transistor classes plus long-channel variants. An internal
// optimizer searches circuit configurations to satisfy the clock target.
//
// The framework separates peak (TDP) power from runtime power: runtime
// analysis consumes per-component activity statistics supplied by any
// external performance simulator through an XML interface (package-level
// LoadXML / WriteXML), exactly the decoupling the original tool defines.
//
// # Quick start
//
//	cfg := mcpat.Config{
//	    Name: "mychip", NM: 45, ClockHz: 2e9, NumCores: 4,
//	    Core: mcpat.CoreConfig{Threads: 2, IntALUs: 2, FPUs: 1},
//	    L2:   &mcpat.CacheConfig{Name: "L2", Bytes: 4 << 20, Banks: 4},
//	    NoC:  mcpat.NoCSpec{Kind: mcpat.Crossbar, FlitBits: 128},
//	}
//	p, err := mcpat.New(cfg)
//	if err != nil { ... }
//	report := p.Report(nil) // TDP-only report
//	fmt.Println(report.Format(2))
//
// The subpackages under internal/ implement the layered model; this
// package re-exports the stable public surface.
package mcpat

import (
	"context"
	"fmt"
	"io"
	"os"

	"mcpat/internal/array"
	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/config"
	"mcpat/internal/core"
	"mcpat/internal/distrib"
	"mcpat/internal/dram"
	"mcpat/internal/explore"
	"mcpat/internal/floorplan"
	"mcpat/internal/gem5"
	"mcpat/internal/guard"
	"mcpat/internal/m5compat"
	"mcpat/internal/mc"
	"mcpat/internal/perfsim"
	"mcpat/internal/power"
	"mcpat/internal/presets"
	"mcpat/internal/serve"
	"mcpat/internal/study"
	"mcpat/internal/tech"
	"mcpat/internal/thermal"
	"mcpat/internal/trace"
	"mcpat/internal/tracesim"
	"mcpat/internal/validation"
)

// Core configuration and model types.
type (
	// Config describes a full processor chip.
	Config = chip.Config
	// Stats carries runtime statistics from a performance simulator.
	Stats = chip.Stats
	// Processor is a synthesized chip; call Report for power/area trees.
	Processor = chip.Processor
	// NoCSpec configures the on-chip fabric.
	NoCSpec = chip.NoCSpec
	// CoreConfig describes one processor core.
	CoreConfig = core.Config
	// CacheParams configures a private L1 cache inside a core.
	CacheParams = core.CacheParams
	// CacheConfig describes a shared cache level (L2/L3).
	CacheConfig = cache.Config
	// MCConfig describes the memory controller.
	MCConfig = mc.Config
	// Report is a node of the hierarchical power/area report.
	Report = power.Item
	// DeviceType selects the ITRS transistor class.
	DeviceType = tech.DeviceType
	// InterconnectKind selects the chip-level fabric.
	InterconnectKind = chip.InterconnectKind
)

// HP is the high-performance (fast, leaky) device class.
const HP = tech.HP

// Interconnect kinds.
const (
	// Bus is a shared multi-drop bus.
	Bus = chip.Bus
	// Crossbar is a flat crossbar (Niagara style).
	Crossbar = chip.Crossbar
	// Mesh is a 2D-mesh NoC (optionally clustered).
	Mesh = chip.Mesh
	// Ring is a ring of 3-port routers.
	Ring = chip.Ring
)

// New synthesizes a processor from a chip configuration.
//
// New never panics: faults inside the model layers are contained at this
// boundary and classified into the error taxonomy (configuration,
// infeasible, model domain, internal); every error escaping the public
// API wraps exactly one kind.
func New(cfg Config) (*Processor, error) { return chip.New(cfg) }

// ErrConfig marks a malformed or out-of-range configuration, the
// error-taxonomy kind to test for with errors.Is.
var ErrConfig = guard.ErrConfig

// Diagnostics is the full list from an output sanity pass; Err() folds
// it into a single model-domain error.
type Diagnostics = guard.Diagnostics

// CheckReport walks a power/area report and flags non-finite or negative
// values, component trees whose children exceed their parent, and runtime
// power beyond a sane multiple of TDP. An empty result means the report
// passed every check.
func CheckReport(rep *Report) Diagnostics { return guard.CheckReport(rep, nil) }

// LoadXML parses a McPAT-style XML document and returns the chip
// configuration plus any runtime statistics it carries.
func LoadXML(r io.Reader) (Config, *Stats, error) {
	root, err := config.Parse(r)
	if err != nil {
		return Config{}, nil, err
	}
	cfg, err := config.ToChipConfig(root)
	if err != nil {
		return Config{}, nil, err
	}
	return cfg, config.ToStats(root), nil
}

// LoadXMLFile is LoadXML reading from a file path.
func LoadXMLFile(path string) (Config, *Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, nil, fmt.Errorf("mcpat: %w", err)
	}
	defer f.Close()
	return LoadXML(f)
}

// WriteXML serializes a chip configuration as a McPAT-style XML document.
func WriteXML(w io.Writer, cfg Config) error {
	return config.FromChipConfig(cfg).Write(w)
}

// WriteXMLWithStats serializes a configuration together with runtime
// statistics - the combined document a performance simulator hands back
// to the power models.
func WriteXMLWithStats(w io.Writer, cfg Config, stats *Stats) error {
	root := config.FromChipConfig(cfg)
	config.FromStats(root, stats)
	return root.Write(w)
}

// Floorplanning.
type (
	// FloorplanBlock is one top-level component to place on the die.
	FloorplanBlock = floorplan.Block
	// Floorplan is a completed die layout with distance queries.
	Floorplan = floorplan.Plan
)

// PlanFloor places count copies of the tile block in a near-square grid
// with pad-bound peripherals along the die edge, returning die geometry,
// block positions, mesh wire length, and route-length statistics.
func PlanFloor(tile FloorplanBlock, count int, periph []FloorplanBlock, aspect float64) (*Floorplan, error) {
	return floorplan.Grid(tile, count, periph, aspect)
}

// Preset couples a name and description with a ready-to-run chip
// configuration (ARM A9-class, Atom-class, Penryn-class, plus the four
// validation targets), matching the templates the original distribution
// ships.
type Preset = presets.Preset

// Presets returns every bundled chip template.
func Presets() []Preset { return presets.All() }

// PresetByName looks a bundled template up by its short name (e.g.
// "arm-a9", "niagara").
func PresetByName(name string) (Preset, error) { return presets.ByName(name) }

// ValidationTarget couples one of the paper's validation processors with
// its published reference data.
type ValidationTarget = validation.Target

// ValidationResult is a completed model-vs-published comparison.
type ValidationResult = validation.Result

// ValidationTargets returns the four processors the paper validates
// against: Niagara (90 nm), Niagara2 (65 nm), Alpha 21364 (180 nm), and
// Xeon Tulsa (65 nm).
func ValidationTargets() []ValidationTarget { return validation.All() }

// Validate synthesizes a validation target and compares it against its
// published reference data.
func Validate(t ValidationTarget) (*ValidationResult, error) { return validation.Compare(t) }

// Performance-simulation substrate (the McPAT-side interface accepts any
// simulator; this analytical one ships with the framework).
type (
	// Workload characterizes a parallel kernel for the bundled
	// performance model.
	Workload = perfsim.Workload
	// Machine is the performance-relevant view of a chip.
	Machine = perfsim.Machine
	// SimResult is a completed performance simulation.
	SimResult = perfsim.Result
)

// SPLASH2LikeWorkloads returns the three bundled workload descriptors
// (fft/ocean/lu-shaped).
func SPLASH2LikeWorkloads() []Workload { return perfsim.SPLASH2Like() }

// Simulate runs the bundled analytical performance model.
func Simulate(m Machine, w Workload) (*SimResult, error) { return perfsim.Run(m, w) }

// Case-study surface.
type (
	// StudyParams are the fixed parameters of the manycore case study.
	StudyParams = study.Params
	// ClusterResult is one design point of the clustering sweep.
	ClusterResult = study.ClusterResult
	// DeviceRow is one point of the device-type study.
	DeviceRow = study.DeviceRow
	// TechRow is one node of the cross-technology sweep.
	TechRow = study.TechRow
)

// DefaultStudyParams returns the paper-style 22 nm 64-core setup.
func DefaultStudyParams() StudyParams { return study.DefaultParams() }

// RunClusterStudy sweeps cluster sizes {1,2,4,8} for the given setup.
func RunClusterStudy(p StudyParams, ws []Workload) ([]ClusterResult, error) {
	return study.RunClusterSweep(p, ws)
}

// RunDeviceStudy synthesizes a fixed chip across nodes and device classes.
func RunDeviceStudy(nodes []float64) ([]DeviceRow, error) { return study.DeviceStudy(nodes) }

// RunTechStudy repeats the clustering sweep across technology nodes.
func RunTechStudy(nodes []float64, ws []Workload) ([]TechRow, error) {
	return study.RunTechSweep(nodes, ws)
}

// ManycoreConfig builds the chip configuration of one clustering design
// point of the case study.
func ManycoreConfig(p StudyParams, clusterSize int) (Config, error) {
	return study.ManycoreChip(p, clusterSize)
}

// Trace-driven cache simulation (the fidelity rung between workload
// parameters and a full-system simulator).
type (
	// TraceConfig describes a synthetic parallel program's memory behavior.
	TraceConfig = tracesim.TraceConfig
	// CacheHierarchy describes the simulated L1/L2 hierarchy.
	CacheHierarchy = tracesim.Hierarchy
	// TraceResult carries measured hit/miss/coherence statistics.
	TraceResult = tracesim.Result
)

// SimulateTrace runs a synthetic trace through set-associative caches
// with MSI coherence and measures miss rates and coherence traffic.
func SimulateTrace(h CacheHierarchy, tc TraceConfig) (*TraceResult, error) {
	return tracesim.Simulate(h, tc)
}

// M5 / gem5 statistics interface.
type M5Dump = m5compat.Dump

// ParseM5Stats reads the final dump of an M5/gem5 stats.txt stream.
func ParseM5Stats(r io.Reader) (M5Dump, error) { return m5compat.ParseLast(r) }

// M5ToStats converts a parsed M5/gem5 dump into this framework's runtime
// statistics vector.
func M5ToStats(d M5Dump, clockHz float64, numCores int) (*Stats, error) {
	return m5compat.ToChipStats(d, clockHz, numCores)
}

// ParseM5StatsAll reads every dump of an M5/gem5 stats.txt stream in
// order — the multi-interval entry point behind power traces.
func ParseM5StatsAll(r io.Reader) ([]M5Dump, error) { return m5compat.Parse(r) }

// M5ToStatsAt converts the i-th dump of a multi-dump stream into the
// runtime statistics vector.
func M5ToStatsAt(dumps []M5Dump, i int, clockHz float64, numCores int) (*Stats, error) {
	return m5compat.ToChipStatsAt(dumps, i, clockHz, numCores)
}

// Native gem5 ingestion: template-free mapping of a gem5 config.json
// onto a chip configuration, with per-field provenance.
type (
	// Gem5Result is a mapped gem5 configuration: the chip description
	// plus the provenance trail and the preset that filled the gaps.
	Gem5Result = gem5.Result
)

// Time-series power traces: synthesize the chip once, score one cheap
// pure pass per statistics interval.
type (
	// TraceEngine scores intervals against one synthesized chip.
	TraceEngine = trace.Engine
	// TraceInterval is one statistics window (runtime vector + seconds).
	TraceInterval = trace.Interval
	// PowerTrace is a materialized trace: header, samples, summary. Its
	// WriteNDJSON/WriteCSV methods serialize it in the same formats the
	// service and mcpat-trace emit.
	PowerTrace = trace.Trace
	// TraceLoopOptions configures the closed power/thermal/DVFS feedback
	// loop of a trace run (see TraceEngine.EnableLoop).
	TraceLoopOptions = trace.LoopOptions
	// Governor picks the DVFS operating point of each trace interval.
	Governor = trace.Governor
	// ThermalHeadroomGovernor throttles proportionally to the thermal
	// headroom deficit.
	ThermalHeadroomGovernor = trace.ThermalHeadroom
)

// NewGovernor resolves a DVFS governor by policy name ("none",
// "headroom", or "schedule") — the mapping behind the mcpat-trace
// -governor flag and the service's thermal trace options.
func NewGovernor(name string, targetK float64, freqSchedule []float64) (Governor, error) {
	return trace.NewGovernor(name, targetK, freqSchedule)
}

// NewTraceEngine synthesizes cfg once and returns an engine whose Run
// method scores statistics intervals into a PowerTrace. Per-interval
// reports are bit-identical to Report over the same statistics.
func NewTraceEngine(cfg Config) (*TraceEngine, error) { return trace.NewEngine(cfg) }

// TraceIntervalsFromDumps converts parsed gem5 dumps into trace
// intervals for a chip with the given clock and core count.
func TraceIntervalsFromDumps(dumps []M5Dump, clockHz float64, numCores int) ([]TraceInterval, error) {
	return trace.IntervalsFromDumps(dumps, clockHz, numCores)
}

// TraceFromGem5 wires the native pipeline end to end: map config.json,
// synthesize the chip once, and convert every stats.txt dump into an
// interval ready for TraceEngine.Run.
func TraceFromGem5(configJSON, statsTxt io.Reader) (*TraceEngine, []TraceInterval, *Gem5Result, error) {
	return trace.FromGem5(configJSON, statsTxt)
}

// Design-space exploration.
type (
	// DSESpace enumerates the design axes to sweep.
	DSESpace = explore.Space
	// DSEConstraints bound the feasible region (area/TDP budgets).
	DSEConstraints = explore.Constraints
	// DSEParams fixes the non-swept parameters.
	DSEParams = explore.Params
	// DSEResult is a completed exploration.
	DSEResult = explore.Result
	// DSEObjective ranks feasible candidates.
	DSEObjective = explore.Objective
	// DSEOptions tunes the parallel sweep engine (worker count,
	// per-candidate deadline, fail-fast).
	DSEOptions = explore.Options
	// DSEFailure records a candidate whose evaluation faulted (panic,
	// timeout) without aborting the sweep.
	DSEFailure = explore.Failure
	// DSESearchKind selects the search strategy (exhaustive sweep or
	// budgeted adaptive Pareto search) via DSEOptions.Search.
	DSESearchKind = explore.SearchKind
)

// DSE objectives.
const (
	// MaxThroughput maximizes aggregate instructions/s.
	MaxThroughput = explore.MaxThroughput
	// MaxPerfPerWatt maximizes throughput per runtime watt.
	MaxPerfPerWatt = explore.MaxPerfPerWatt
	// MinED2AP minimizes energy x delay^2 x area.
	MinED2AP = explore.MinED2AP
)

// DSE search strategies.
const (
	// SearchExhaustive evaluates every point of the space (the default).
	SearchExhaustive = explore.SearchExhaustive
	// SearchPareto runs the budgeted adaptive multi-objective search:
	// same single-objective winners as the exhaustive sweep on the
	// validation spaces with roughly a tenth of the evaluations, plus a
	// Pareto front over {power, area, delay, ED², EDA}.
	SearchPareto = explore.SearchPareto
)

// ParseDSESearchKind parses a -search flag value ("", "exhaustive",
// "pareto") into a DSESearchKind.
func ParseDSESearchKind(s string) (DSESearchKind, error) {
	return explore.ParseSearchKind(s)
}

// ExploreDesignSpace exhaustively evaluates the space under the budget
// and returns candidates ranked by the objective.
func ExploreDesignSpace(p DSEParams, space DSESpace, cons DSEConstraints, obj DSEObjective) (*DSEResult, error) {
	return explore.Search(p, space, cons, obj)
}

// ExploreDesignSpaceContext is ExploreDesignSpace with cancellation and
// fault tolerance: candidates are evaluated by a bounded worker pool,
// a candidate that panics or exceeds the per-candidate deadline becomes a
// DSEFailure in the result instead of aborting the sweep, and cancelling
// ctx stops the sweep promptly, returning the partial result alongside
// ctx's error. Result ordering is deterministic regardless of worker
// count. opts may be nil for defaults.
func ExploreDesignSpaceContext(ctx context.Context, p DSEParams, space DSESpace, cons DSEConstraints, obj DSEObjective, opts *DSEOptions) (*DSEResult, error) {
	return explore.SearchContext(ctx, p, space, cons, obj, opts)
}

// Distributed DSE (the coordinator/worker subsystem). A coordinator
// shards an exhaustive sweep across mcpatd -worker instances over HTTP
// with work-stealing and bounded retry, and merges the per-shard
// results into a result bit-identical to the single-process engine.
type (
	// DistribOptions is DSEOptions plus the remote workers, the
	// coordinator metrics sink and a diagnostics logger. Shard sizing
	// and retry backoff are fixed inside the coordinator.
	DistribOptions = distrib.Options
	// DistribMetrics accumulates coordinator counters across sweeps;
	// pass one instance via DistribOptions.Metrics and snapshot it.
	DistribMetrics = distrib.Metrics
)

// ExploreDesignSpaceDistributed is the one sweep entry point. An
// exhaustive sweep with opts.Remotes is sharded across them plus the
// built-in local worker, with the same cancellation semantics as
// ExploreDesignSpaceContext, and its result is bit-identical to the
// single-process sweep: candidate ranking, winners, and Pareto front
// all match. Every other sweep (no remotes, a pareto search, or a set
// Shard) is ExploreDesignSpaceContext with opts.Options. opts may be
// nil for defaults.
func ExploreDesignSpaceDistributed(ctx context.Context, p DSEParams, space DSESpace, cons DSEConstraints, obj DSEObjective, opts *DistribOptions) (*DSEResult, error) {
	return distrib.Run(ctx, p, space, cons, obj, opts)
}

// HTTP evaluation service (the mcpatd subsystem). The wire types are
// shared between the service and the CLIs so both emit identical JSON.
type (
	// ServerConfig tunes the evaluation service (admission limits,
	// deadlines, job pool).
	ServerConfig = serve.Config
	// Server is the mcpatd HTTP service; mount Handler() on an
	// http.Server and call Shutdown to drain.
	Server = serve.Server
	// DSEReport is the machine-readable sweep result, shared by the
	// service's job results and mcpat-dse -json.
	DSEReport = serve.DSEReport
)

// NewServer builds the evaluation service; see cmd/mcpatd for the
// ready-made binary.
func NewServer(cfg ServerConfig) *Server { return serve.New(cfg) }

// NewDSEReport converts an exploration result into the shared wire
// form, so library users serialize sweeps identically to the service.
func NewDSEReport(res *DSEResult, obj DSEObjective) *DSEReport {
	return serve.NewDSEReport(res, obj)
}

// Thermal co-analysis: solve the power-temperature fixed point.
type (
	// PackageSpec describes the cooling solution (ambient, Rtheta,
	// iteration knobs, transient time constant).
	PackageSpec = thermal.PackageSpec
	// ThermalResult is a converged power/temperature operating point.
	ThermalResult = thermal.Result
)

// SolveThermal finds the self-consistent junction temperature of the
// chip's TDP operating point. The chip is synthesized exactly once;
// every iteration is a Score-time leakage retune over the same
// synthesized parts.
func SolveThermal(cfg Config, pkg PackageSpec) (*ThermalResult, error) {
	return thermal.Solve(cfg, pkg)
}

// SolveThermalOn runs the power-temperature fixed point over an
// already-synthesized processor; non-nil stats balances runtime power
// instead of TDP (the steady state a closed-loop trace converges to on
// a constant workload).
func SolveThermalOn(p *Processor, stats *Stats, pkg PackageSpec) (*ThermalResult, error) {
	return thermal.SolveProcessor(p, stats, pkg)
}

// Off-chip DRAM device power (IDD methodology).
type (
	// DRAMDevice is a DRAM datasheet extract.
	DRAMDevice = dram.DeviceSpec
	// DRAMChannel describes one populated memory channel.
	DRAMChannel = dram.ChannelSpec
	// DRAMTraffic is the served workload of a channel.
	DRAMTraffic = dram.Traffic
	// DRAMPower is the channel power breakdown.
	DRAMPower = dram.Result
)

// DDR2x800 returns a representative DDR2-800 device spec.
func DDR2x800() DRAMDevice { return dram.DDR2_800() }

// DDR3x1333 returns a representative DDR3-1333 device spec.
func DDR3x1333() DRAMDevice { return dram.DDR3_1333() }

// DRAMChannelPower evaluates the IDD power model for one channel.
func DRAMChannelPower(ch DRAMChannel, tr DRAMTraffic) (*DRAMPower, error) {
	return dram.ChannelPower(ch, tr)
}

// Cache is a synthesized shared cache level: the data/tag arrays, MSHRs,
// write-back buffer, and optional directory, with per-access energies,
// leakage, area, and access time chosen by the internal optimizer.
type Cache = cache.Cache

// VFPoint is one operating point of a voltage-frequency scan.
type VFPoint = chip.VFPoint

// VFScan sweeps supply voltage around the nominal point, retuning the
// clock with the alpha-power law, and reports the resulting TDP /
// dynamic / leakage / energy-per-cycle curve - McPAT's DVFS capability.
// scales are relative Vdd multipliers (nil selects 0.7..1.1).
func VFScan(cfg Config, scales []float64) ([]VFPoint, error) {
	return chip.VFScan(cfg, scales)
}

// EngineCounters is the one record of the synthesis engine's counters:
// Cache (array-synthesis cache), Subsys (the subsystem cache above it)
// and ArrayOpt (organizations the array optimizer evaluated).
// DSEResult embeds it as one sweep's delta.
type EngineCounters = explore.Counters

// ReadEngineCounters returns the current process-wide counters; Delta
// takes the movement between two reads. Both caches key on a canonical
// configuration plus the technology node's value fingerprint, and
// cached results are bit-identical to uncached ones.
func ReadEngineCounters() EngineCounters { return explore.ReadCounters() }

// ArrayCacheStats is the Cache section of EngineCounters: hits, misses,
// single-flight shared solves, bypassed (uncached) solves, and resident
// entries of the array-synthesis cache.
type ArrayCacheStats = array.CacheStats

// ResetArraySynthCache drops every cached synthesis result and zeroes
// the counters, forcing subsequent evaluations to start cold (useful for
// benchmarking and for bounding memory across unrelated long runs).
func ResetArraySynthCache() { array.ResetCache() }

// SetArraySynthCache enables or disables synthesis-result caching (it is
// enabled by default) and returns the previous setting. Disabling does
// not drop resident entries; pair with ResetArraySynthCache for a fully
// cold, cache-free run.
func SetArraySynthCache(enabled bool) bool { return array.SetCacheEnabled(enabled) }

// SubsysCacheStats is the Subsys section of EngineCounters, broken down
// by component kind (core, cache, fabric, mc, clock).
type SubsysCacheStats = component.CacheStats

// SubsysKindStats is the per-kind counter record inside SubsysCacheStats.
type SubsysKindStats = component.KindStats

// ResetSubsysSynthCache drops every cached subsystem and zeroes the
// counters, forcing subsequent chip builds to re-synthesize (the array
// cache underneath is independent; reset it separately).
func ResetSubsysSynthCache() { component.ResetCache() }

// SetSubsysSynthCache enables or disables subsystem-result caching (it
// is enabled by default) and returns the previous setting. Disabling
// does not drop resident entries; pair with ResetSubsysSynthCache for a
// fully cold run.
func SetSubsysSynthCache(enabled bool) bool { return component.SetCacheEnabled(enabled) }

// Indices into SubsysCacheStats.Kinds for the core, cache and fabric
// families; SubsysKindName names every index.
const (
	SubsysKindCore   = int(component.KindCore)
	SubsysKindCache  = int(component.KindCache)
	SubsysKindFabric = int(component.KindFabric)
)

// SubsysKindName returns the display name of a SubsysCacheStats.Kinds
// index ("core", "cache", "fabric", "mc", "clock").
func SubsysKindName(i int) string { return component.Kind(i).String() }

// NewCache synthesizes a standalone shared cache at the given node,
// device class, and target clock - direct access to the memory-array
// optimizer for cache design-space exploration.
func NewCache(nm, clockHz float64, dev DeviceType, cfg CacheConfig) (*Cache, error) {
	node, err := tech.ByFeature(nm)
	if err != nil {
		return nil, err
	}
	cfg.Tech = node
	cfg.Dev = dev
	if cfg.TargetHz == 0 {
		cfg.TargetHz = clockHz
	}
	return cache.New(cfg)
}
