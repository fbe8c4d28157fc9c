// Package perfsim is the performance-simulation substrate paired with the
// power/area/timing models, standing in for the full-system simulator
// (M5) and SPLASH-2 benchmarks the original study used.
//
// It is an analytical multicore performance model: each hardware thread
// executes a workload described by its instruction mix and miss behavior;
// fine-grained multithreading hides memory stalls up to the issue
// bandwidth of the core; shared-cache banks, intra-cluster buses, and the
// global fabric add queueing delays (M/D/1 approximation); and off-chip
// bandwidth caps throughput. The model iterates to a fixed point between
// achieved IPC and contention, then emits exactly the statistics vector
// the chip model consumes (per-cycle core activity plus chip-level
// traffic rates) - the same decoupled interface McPAT defines for any
// external performance simulator.
//
// Why this substitution preserves the study's behavior: the case-study
// figures depend only on (a) how throughput degrades as more cores share
// a cluster's L2 bandwidth, and (b) the traffic rates that drive fabric
// and memory power. Both are first-order queueing effects that this model
// captures; the power/area/timing side is computed by the same code paths
// regardless of where the statistics come from.
package perfsim

import (
	"fmt"
	"math"

	"mcpat/internal/core"
)

// Workload characterizes a parallel kernel by its per-instruction rates,
// shaped after SPLASH-2 kernels' published profiles.
type Workload struct {
	Name string

	// Instructions is the total dynamic instruction count of the problem
	// (all threads together).
	Instructions float64

	// Per-instruction fractions.
	LoadFrac, StoreFrac float64
	BranchFrac          float64
	FPFrac, MulFrac     float64

	// Miss rates: per instruction for L1 (I+D combined treatment uses
	// D-side), per L2 access for L2.
	L1IMissRate float64 // per fetch
	L1DMissRate float64 // per load/store
	L2MissRate  float64 // per L2 access

	// SharingFrac is the fraction of L2 accesses that cross the global
	// fabric (coherence / remote-bank traffic).
	SharingFrac float64

	// BaseCPI is the no-stall CPI of one thread on a single-issue core.
	BaseCPI float64
}

// SPLASH2Like returns three workload descriptors with the published shape
// of SPLASH-2 kernels: fft (compute-heavy, streaming), ocean
// (memory-bound, high miss rates), and lu (blocked, cache-friendly).
func SPLASH2Like() []Workload {
	return []Workload{
		{
			Name: "fft", Instructions: 4e9,
			LoadFrac: 0.25, StoreFrac: 0.12, BranchFrac: 0.10,
			FPFrac: 0.30, MulFrac: 0.02,
			L1IMissRate: 0.002, L1DMissRate: 0.025, L2MissRate: 0.25,
			SharingFrac: 0.15, BaseCPI: 1.1,
		},
		{
			Name: "ocean", Instructions: 3e9,
			LoadFrac: 0.31, StoreFrac: 0.14, BranchFrac: 0.13,
			FPFrac: 0.26, MulFrac: 0.01,
			L1IMissRate: 0.003, L1DMissRate: 0.060, L2MissRate: 0.40,
			SharingFrac: 0.30, BaseCPI: 1.15,
		},
		{
			Name: "lu", Instructions: 5e9,
			LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.08,
			FPFrac: 0.35, MulFrac: 0.02,
			L1IMissRate: 0.001, L1DMissRate: 0.012, L2MissRate: 0.15,
			SharingFrac: 0.10, BaseCPI: 1.05,
		},
	}
}

// Machine describes the performance-relevant parameters of the modeled
// chip.
type Machine struct {
	Cores          int
	ThreadsPerCore int
	IssueWidth     int
	ClockHz        float64

	// ClusterSize is the number of cores sharing one L2 bank through one
	// intra-cluster bus (1 = private connection per core).
	ClusterSize int

	// Latencies in core cycles (unloaded).
	L2Latency    float64
	FabricHopLat float64 // per mesh hop
	MemLatency   float64

	// MeshDim is the number of routers along one edge of the global mesh
	// (clusters are the mesh nodes).
	MeshDim int

	// MemBandwidth is the off-chip bandwidth in bytes/s; BytesPerMiss the
	// line size fetched per L2 miss.
	MemBandwidth float64
	BytesPerMiss float64

	// BusBytes is the intra-cluster bus width in bytes (default 16); a
	// 64-byte line transfer occupies the bus for BytesPerMiss/BusBytes
	// beats plus request overhead.
	BusBytes int
}

// Result is a completed simulation.
type Result struct {
	Machine  Machine
	Workload Workload

	Runtime    float64 // seconds
	Throughput float64 // instructions/s (aggregate)
	CoreIPC    float64 // average per core
	ThreadCPI  float64 // average per thread, including stalls

	// Utilizations (0..1).
	CoreUtil   float64 // achieved IPC / issue width
	L2BankUtil float64
	BusUtil    float64
	MemUtil    float64

	// Statistics in the form the chip model consumes.
	CoreActivity  core.Activity
	L2AccessesSec float64 // chip-wide, per second
	L2ReadsSec    float64
	L2WritesSec   float64
	FabricFlits   float64 // flits/s per router
	MemAccessesS  float64 // 64B transactions/s
}

// mdQueueWait returns the M/D/1 mean wait in units of the service time for
// utilization rho, saturating smoothly as rho approaches 1.
func mdQueueWait(rho float64) float64 {
	if rho < 0 {
		return 0
	}
	if rho > 0.98 {
		rho = 0.98
	}
	return rho / (2 * (1 - rho))
}

// Run executes the analytical model to a fixed point.
func Run(m Machine, w Workload) (*Result, error) {
	if m.Cores <= 0 || m.ThreadsPerCore <= 0 || m.ClockHz <= 0 {
		return nil, fmt.Errorf("perfsim: invalid machine %+v", m)
	}
	if m.IssueWidth <= 0 {
		m.IssueWidth = 1
	}
	if m.ClusterSize <= 0 {
		m.ClusterSize = 1
	}
	if m.BytesPerMiss <= 0 {
		m.BytesPerMiss = 64
	}
	if m.BusBytes <= 0 {
		m.BusBytes = 16
	}
	if w.Instructions <= 0 || w.BaseCPI <= 0 {
		return nil, fmt.Errorf("perfsim: invalid workload %+v", w)
	}

	memFrac := w.LoadFrac + w.StoreFrac
	l2PerInst := memFrac*w.L1DMissRate + w.L1IMissRate
	memPerInst := l2PerInst * w.L2MissRate

	clusters := m.Cores / m.ClusterSize
	if clusters < 1 {
		clusters = 1
	}
	meshDim := m.MeshDim
	if meshDim <= 0 {
		meshDim = int(math.Ceil(math.Sqrt(float64(clusters))))
	}
	avgHops := 2.0 / 3.0 * float64(meshDim) // mean Manhattan distance in a dim x dim mesh

	// Bus occupancy per L2 access: request beat plus the line transfer
	// (req/resp round trip adds ~50% overhead).
	beats := 1.5 * (1 + float64(m.BytesPerMiss)/float64(m.BusBytes))
	// Occupancy coefficients per unit of core IPC.
	busCoef := l2PerInst * float64(m.ClusterSize) * beats
	bankCoef := l2PerInst * float64(m.ClusterSize) * 0.5 // pipelined banks
	memCoef := 0.0
	if m.MemBandwidth > 0 {
		memCoef = memPerInst * float64(m.Cores) * m.ClockHz * m.BytesPerMiss / m.MemBandwidth
	}

	ipc := float64(m.IssueWidth) * 0.8 // initial guess, per core
	var threadCPI, busRho, bankRho, memRho float64
	for iter := 0; iter < 64; iter++ {
		busRho = min(ipc*busCoef, 0.98)
		bankRho = min(ipc*bankCoef, 0.98)
		memRho = min(ipc*memCoef, 0.98)

		// Loaded latencies.
		busDelay := 2 * (1 + mdQueueWait(busRho)) // arbitration+transfer, queued
		l2Loaded := m.L2Latency + busDelay + mdQueueWait(bankRho)*2
		remoteExtra := avgHops * m.FabricHopLat * (1 + mdQueueWait(busRho*0.5))
		memLoaded := m.MemLatency * (1 + 2*mdQueueWait(memRho))

		// Per-thread stall cycles per instruction. A fraction SharingFrac
		// of L2 accesses additionally crosses the mesh.
		stalls := l2PerInst*(l2Loaded+w.SharingFrac*remoteExtra) + memPerInst*memLoaded
		threadCPI = w.BaseCPI + stalls

		// Fine-grained multithreading: the core issues from any ready
		// thread; aggregate demand is T/CPI_thread instructions/cycle,
		// capped by issue width and by every shared resource's capacity.
		newIPC := min(float64(m.IssueWidth), float64(m.ThreadsPerCore)/threadCPI)
		for _, coef := range [...]float64{busCoef, bankCoef, memCoef} {
			if coef > 0 {
				newIPC = min(newIPC, 0.95/coef)
			}
		}
		if math.Abs(newIPC-ipc) < 1e-9 {
			ipc = newIPC
			break
		}
		ipc = 0.5*ipc + 0.5*newIPC
	}

	throughput := ipc * float64(m.Cores) * m.ClockHz
	runtime := w.Instructions / throughput

	instPerCyc := ipc
	l2PerCyc := instPerCyc * l2PerInst
	act := core.Activity{
		ICacheAccess: min(1, instPerCyc),
		BTBAccess:    instPerCyc * w.BranchFrac,
		PredAccess:   instPerCyc * w.BranchFrac,
		Decode:       instPerCyc,
		IntOp:        instPerCyc * (1 - w.FPFrac - w.MulFrac - memFrac),
		MulOp:        instPerCyc * w.MulFrac,
		FPOp:         instPerCyc * w.FPFrac,
		DCacheRead:   instPerCyc * w.LoadFrac,
		DCacheWrite:  instPerCyc * w.StoreFrac,
		CacheMiss:    l2PerCyc,
		ITLBAccess:   min(1, instPerCyc),
		PipelineDuty: min(1, ipc/float64(m.IssueWidth)),
	}
	act.DTLBAccess = act.DCacheRead + act.DCacheWrite
	act.LSQSearch = act.DCacheWrite
	act.LSQAccess = act.DCacheRead + act.DCacheWrite
	act.RFRead = 1.6 * (act.IntOp + act.MulOp)
	act.RFWrite = 0.8 * (act.IntOp + act.MulOp)
	act.FPRFRead = 1.6 * act.FPOp
	act.FPRFWrite = 0.8 * act.FPOp
	act.Bypass = act.IntOp + act.MulOp + act.FPOp + act.DCacheRead

	l2Sec := l2PerCyc * float64(m.Cores) * m.ClockHz
	memSec := instPerCyc * memPerInst * float64(m.Cores) * m.ClockHz
	routers := float64(clusters)
	fabricFlits := l2Sec * w.SharingFrac * avgHops / math.Max(routers, 1)

	return &Result{
		Machine:  m,
		Workload: w,

		Runtime:    runtime,
		Throughput: throughput,
		CoreIPC:    ipc,
		ThreadCPI:  threadCPI,

		CoreUtil:   ipc / float64(m.IssueWidth),
		L2BankUtil: bankRho,
		BusUtil:    busRho,
		MemUtil:    memRho,

		CoreActivity:  act,
		L2AccessesSec: l2Sec,
		L2ReadsSec:    l2Sec * 0.7,
		L2WritesSec:   l2Sec * 0.3,
		FabricFlits:   fabricFlits,
		MemAccessesS:  memSec,
	}, nil
}
