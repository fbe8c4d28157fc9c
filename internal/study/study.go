// Package study implements the paper's case study: exploring the
// interconnect organization of future manycore processors. A 64-core
// Niagara-style CMP at 22 nm is swept over cluster sizes {1, 2, 4, 8} -
// cores in a cluster share an L2 slice over a local bus, and clusters are
// joined by a 2D-mesh NoC. For every configuration the study combines the
// performance substrate (package perfsim) with the power/area/timing
// models (package chip) to produce performance, power and area breakdowns,
// and the combined metrics (EDP, ED^2P, EDAP, ED^2AP) the paper uses to
// compare design points.
//
// The package also implements the device-type study: the same chip
// synthesized with HP, LSTP, LOP, and long-channel HP transistors across
// technology generations, exposing the leakage/frequency trade-off.
package study

import (
	"fmt"
	"math"

	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/core"
	"mcpat/internal/mc"
	"mcpat/internal/perfsim"
	"mcpat/internal/tech"
)

// ClusterSizes are the sweep points of the case study.
var ClusterSizes = []int{1, 2, 4, 8}

// Params bundles the fixed parameters of the manycore study.
type Params struct {
	NM       float64 // technology node (nm)
	Cores    int
	ClockHz  float64
	Threads  int
	L2Total  int // bytes, distributed across clusters
	FlitBits int
	MemBW    float64 // bytes/s
}

// DefaultParams returns the paper-style 22 nm setup: 64 four-thread
// in-order cores, 16MB of distributed L2, 128-bit flits, 4 memory
// channels.
func DefaultParams() Params {
	return Params{
		NM:       22,
		Cores:    64,
		ClockHz:  2.5e9,
		Threads:  4,
		L2Total:  16 * 1024 * 1024,
		FlitBits: 128,
		MemBW:    200e9,
	}
}

// ManycoreChip builds the chip configuration of one clustering design
// point.
func ManycoreChip(p Params, clusterSize int) (chip.Config, error) {
	if clusterSize < 1 || p.Cores%clusterSize != 0 {
		return chip.Config{}, fmt.Errorf("study: cluster size %d does not divide %d cores", clusterSize, p.Cores)
	}
	clusters := p.Cores / clusterSize
	mx, my := chip.MeshDims(clusters)
	cfg := chip.Config{
		Name:     fmt.Sprintf("manycore-%dc-cl%d", p.Cores, clusterSize),
		NM:       p.NM,
		ClockHz:  p.ClockHz,
		NumCores: p.Cores,
		Core: core.Config{
			Name:    "inorder-core",
			Threads: p.Threads,
			ICache:  core.CacheParams{Bytes: 16 * 1024, BlockBytes: 32, Assoc: 4},
			DCache:  core.CacheParams{Bytes: 8 * 1024, BlockBytes: 16, Assoc: 4},
			IntALUs: 1, MulDivs: 1, FPUs: 1,
			LQEntries: 8, SQEntries: 8,
		},
		L2: &cache.Config{
			Name:  "L2",
			Bytes: p.L2Total, BlockBytes: 64, Assoc: 8,
			Banks: clusters, Directory: true, Sharers: p.Cores,
		},
		NoC: chip.NoCSpec{
			Kind:     chip.Mesh,
			FlitBits: p.FlitBits,
			MeshX:    mx, MeshY: my,
			VirtualChannels: 2, BuffersPerVC: 4,
			ClusterSize: clusterSize,
		},
		MC: &mc.Config{
			Channels: 4, DataBusBits: 64,
			PeakBandwidth: p.MemBW, LVDS: true,
		},
	}
	return cfg, nil
}

// WorkloadRun is the outcome of one (configuration, workload) pair.
type WorkloadRun struct {
	Workload   string
	Runtime    float64 // s
	Throughput float64 // instructions/s
	Power      float64 // runtime power (W)
	Energy     float64 // J for the whole problem
	CoreUtil   float64
}

// ClusterResult aggregates one clustering design point.
type ClusterResult struct {
	ClusterSize  int
	MeshX, MeshY int

	TDP  float64 // W
	Area float64 // mm^2

	// Peak-power and area breakdowns by top-level component, plus the
	// runtime-power breakdown averaged across workloads (what the
	// power-breakdown figure reports).
	PowerBreakdown   map[string]float64
	RuntimeBreakdown map[string]float64
	AreaBreakdown    map[string]float64

	Runs []WorkloadRun

	// Aggregates across workloads: arithmetic-mean throughput,
	// geometric-mean power/energy (they are ratios of the same problem).
	Perf     float64 // instructions/s
	AvgPower float64 // W
	Energy   float64 // J (geomean)

	// Combined metrics (absolute; callers normalize for figures).
	EDP, ED2P, EDAP, ED2AP float64
}

// breakdownComponents are the top-level report nodes the figures track.
var breakdownComponents = []string{"Cores", "L2", "NoC", "MemoryController", "ClockNetwork"}

// RunClusterSweep evaluates every cluster size against every workload and
// returns one result per design point (figures F2-F5).
func RunClusterSweep(p Params, workloads []perfsim.Workload) ([]ClusterResult, error) {
	if len(workloads) == 0 {
		workloads = perfsim.SPLASH2Like()
	}
	var out []ClusterResult
	for _, cs := range ClusterSizes {
		cfg, err := ManycoreChip(p, cs)
		if err != nil {
			return nil, err
		}
		proc, err := chip.New(cfg)
		if err != nil {
			return nil, err
		}
		peakRep := proc.Report(nil)

		res := ClusterResult{
			ClusterSize:      cs,
			MeshX:            cfg.NoC.MeshX,
			MeshY:            cfg.NoC.MeshY,
			TDP:              peakRep.Peak(),
			Area:             peakRep.Area * 1e6,
			PowerBreakdown:   map[string]float64{},
			RuntimeBreakdown: map[string]float64{},
			AreaBreakdown:    map[string]float64{},
		}
		for _, name := range breakdownComponents {
			if n := peakRep.Find(name); n != nil {
				res.PowerBreakdown[name] = n.Peak()
				res.AreaBreakdown[name] = n.Area * 1e6
			}
		}

		m := perfsim.MachineFor(proc)
		var sumThroughput float64
		logPower, logEnergy := 0.0, 0.0
		for _, w := range workloads {
			sim, err := perfsim.Run(m, w)
			if err != nil {
				return nil, err
			}
			stats := statsFrom(sim)
			runRep := proc.Report(stats)
			pw := runRep.Runtime()
			for _, name := range breakdownComponents {
				if n := runRep.Find(name); n != nil {
					res.RuntimeBreakdown[name] += n.Runtime() / float64(len(workloads))
				}
			}
			run := WorkloadRun{
				Workload:   w.Name,
				Runtime:    sim.Runtime,
				Throughput: sim.Throughput,
				Power:      pw,
				Energy:     pw * sim.Runtime,
				CoreUtil:   sim.CoreUtil,
			}
			res.Runs = append(res.Runs, run)
			sumThroughput += sim.Throughput
			logPower += math.Log(pw)
			logEnergy += math.Log(run.Energy)
		}
		n := float64(len(workloads))
		res.Perf = sumThroughput / n
		res.AvgPower = math.Exp(logPower / n)
		res.Energy = math.Exp(logEnergy / n)

		d := 1 / res.Perf // mean time per instruction: the delay metric
		a := res.Area
		res.EDP = res.Energy * d
		res.ED2P = res.Energy * d * d
		res.EDAP = res.Energy * d * a
		res.ED2AP = res.Energy * d * d * a
		out = append(out, res)
	}
	return out, nil
}

// statsFrom converts a simulation result into the chip statistics vector.
func statsFrom(sim *perfsim.Result) *chip.Stats {
	clusters := sim.Machine.Cores / sim.Machine.ClusterSize
	return &chip.Stats{
		CoreRun:             sim.CoreActivity,
		L2Reads:             sim.L2ReadsSec,
		L2Writes:            sim.L2WritesSec,
		NoCFlits:            sim.FabricFlits,
		ClusterBusTransfers: sim.L2AccessesSec / math.Max(float64(clusters), 1),
		MCAccesses:          sim.MemAccessesS,
	}
}

// DeviceRow is one point of the device-type study (figure F1).
type DeviceRow struct {
	NM      float64
	Device  tech.DeviceType
	LongCh  bool
	TDP     float64 // W
	Dynamic float64 // W
	Leakage float64 // W
	FMaxGHz float64 // pipeline-limited max clock for this device class
	Area    float64 // mm^2
}

// DeviceStudy synthesizes an 8-core Niagara-class chip across technology
// nodes for each device class, holding the architecture fixed, and
// reports how dynamic power, leakage, and achievable frequency trade off
// - the technology-exploration capability the paper demonstrates.
func DeviceStudy(nodes []float64) ([]DeviceRow, error) {
	if len(nodes) == 0 {
		nodes = []float64{90, 65, 45, 32, 22}
	}
	type variant struct {
		dev    tech.DeviceType
		longCh bool
	}
	variants := []variant{{tech.HP, false}, {tech.HP, true}, {tech.LOP, false}, {tech.LSTP, false}}
	const stageFO4 = 18 // logic depth per pipeline stage

	var rows []DeviceRow
	for _, nm := range nodes {
		node, err := tech.ByFeature(nm)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			fmax := 1 / (float64(stageFO4) * node.FO4(v.dev, v.longCh))
			clock := math.Min(fmax, 4e9)
			cfg := chip.Config{
				Name:        fmt.Sprintf("devstudy-%gnm-%v", nm, v.dev),
				NM:          nm,
				ClockHz:     clock,
				Dev:         v.dev,
				LongChannel: v.longCh,
				NumCores:    8,
				Core: core.Config{
					Threads: 4,
					ICache:  core.CacheParams{Bytes: 16 * 1024, BlockBytes: 32, Assoc: 4},
					DCache:  core.CacheParams{Bytes: 8 * 1024, BlockBytes: 16, Assoc: 4},
					IntALUs: 1, MulDivs: 1,
				},
				L2: &cache.Config{
					Name: "L2", Bytes: 4 * 1024 * 1024, BlockBytes: 64, Assoc: 8, Banks: 4,
				},
				NoC: chip.NoCSpec{Kind: chip.Crossbar, FlitBits: 128},
				MC:  &mc.Config{Channels: 2, PeakBandwidth: 25e9, LVDS: true},
			}
			proc, err := chip.New(cfg)
			if err != nil {
				return nil, err
			}
			rep := proc.Report(nil)
			rows = append(rows, DeviceRow{
				NM:      nm,
				Device:  v.dev,
				LongCh:  v.longCh,
				TDP:     rep.Peak(),
				Dynamic: rep.PeakDynamic,
				Leakage: rep.Leakage(),
				FMaxGHz: fmax / 1e9,
				Area:    rep.Area * 1e6,
			})
		}
	}
	return rows, nil
}

// TechRow is one point of the technology-scaling sweep of the case study
// (figure F6): the best cluster size per node under the ED^2AP metric.
type TechRow struct {
	NM          float64
	BestCluster int
	Results     []ClusterResult
}

// RunTechSweep repeats the clustering sweep across nodes.
func RunTechSweep(nodes []float64, workloads []perfsim.Workload) ([]TechRow, error) {
	if len(nodes) == 0 {
		nodes = []float64{45, 32, 22}
	}
	var rows []TechRow
	for _, nm := range nodes {
		p := DefaultParams()
		p.NM = nm
		results, err := RunClusterSweep(p, workloads)
		if err != nil {
			return nil, err
		}
		best := results[0]
		for _, r := range results[1:] {
			if r.ED2AP < best.ED2AP {
				best = r
			}
		}
		rows = append(rows, TechRow{NM: nm, BestCluster: best.ClusterSize, Results: results})
	}
	return rows, nil
}
