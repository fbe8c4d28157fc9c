// Package array implements McPAT's memory-array circuit model, the
// CACTI-derived engine used for every storage structure on the chip:
// caches (data + tag), register files, instruction/issue queues, ROBs,
// branch predictors, TLBs (CAM), load/store queues, NoC buffers, and
// memory-controller buffers.
//
// An array is organized as banks, each split into subarrays of R rows by C
// columns. The model computes access/cycle time from the decoder, wordline,
// bitline, sense-amplifier and output H-tree path (Elmore RC + logical
// effort), dynamic energy per read/write/search, subthreshold and gate
// leakage, and layout area including multiport cell growth. An internal
// optimizer enumerates (R, C, column-mux) organizations, rejects those
// that miss the timing target, and picks the best remaining one under the
// requested objective - exactly the role of McPAT's internal optimizer.
package array

import (
	"fmt"
	"math"
	"math/bits"

	"mcpat/internal/circuit"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

// CellType selects the storage cell family.
type CellType int

const (
	// SRAM is the standard 6T cell, used for caches and large RAMs.
	SRAM CellType = iota
	// DFF models flip-flop based storage, used for small, heavily
	// multiported structures (fetch buffers, pipeline queues).
	DFF
	// CAM is a content-addressable cell with match logic, used for TLBs,
	// fully associative caches, issue-queue wakeup, and LSQ search.
	CAM
	// EDRAM is a 1T1C embedded-DRAM cell: ~3x denser than SRAM with
	// destructive reads (every read pays a write-back) and a periodic
	// refresh power floor, used for very large last-level caches.
	EDRAM
)

func (c CellType) String() string {
	switch c {
	case SRAM:
		return "SRAM"
	case DFF:
		return "DFF"
	case CAM:
		return "CAM"
	case EDRAM:
		return "EDRAM"
	}
	return fmt.Sprintf("CellType(%d)", int(c))
}

// Objective selects what the optimizer minimizes among configurations
// that satisfy the timing constraint.
type Objective int

const (
	// OptED2 minimizes read-energy x delay^2, McPAT's default balance.
	OptED2 Objective = iota
	// OptEnergyDelay minimizes energy x delay.
	OptEnergyDelay
	// OptArea minimizes area.
	OptArea
	// OptDelay minimizes access time.
	OptDelay
)

// Config describes a storage structure to be synthesized.
type Config struct {
	Name string

	Tech        *tech.Node
	Periph      tech.DeviceType // periphery transistors (usually HP)
	Cell        tech.DeviceType // cell transistors (often LSTP for big caches)
	LongChannel bool            // use long-channel periphery devices

	// Capacity: either Bytes or (Entries, EntryBits). Exactly one form.
	Bytes     int
	Entries   int
	EntryBits int

	// BlockBits is the number of data bits delivered per access. For
	// byte-capacity arrays it defaults to 8*BlockBytes=512; for
	// entry-based arrays it defaults to EntryBits.
	BlockBits int

	// Assoc: 0 = plain RAM (no tags); >0 = set-associative cache with a
	// tag array; FullyAssoc replaces the tag array with a CAM.
	Assoc      int
	FullyAssoc bool
	TagBits    int // 0 = derived from a 42-bit physical address

	Banks int // >=1; one bank active per access

	// Ports. A structure must have at least one of RW/Rd ports.
	RWPorts, RdPorts, WrPorts, SearchPorts int

	CellKind CellType

	// TargetCycle is the required cycle time in seconds (0 = best effort).
	TargetCycle float64
	Obj         Objective

	// Sequential forces reading a single way (tag-then-data) for
	// set-associative arrays; default reads all ways in parallel when
	// the array is small (<=64KB) and sequentially otherwise.
	Sequential *bool
}

// Result is the synthesized array.
type Result struct {
	power.PAT

	AccessTime float64 // s
	CycleTime  float64 // s

	Height, Width float64 // m (total, all banks)

	// Organization of the winning configuration (data array).
	Rows, Cols, Subarrays, ColMux, Banks int

	// Tag holds the synthesized tag array of a set-associative cache,
	// nil for plain RAMs. Its PAT is already included in the totals.
	Tag *Result

	// RefreshPower is the eDRAM refresh floor (W), already included in
	// Static.Sub; zero for SRAM/DFF/CAM arrays.
	RefreshPower float64

	// Pruned counts candidate organizations the optimizer skipped via
	// its lower-bound test during this synthesis (data + tag for
	// associative caches). Pruning never changes the winner - this
	// counter exists so tests and sweep stats can observe that the
	// branch-and-bound search is actually cutting work.
	Pruned int
}

// validate normalizes the config, returning total bits and output width.
func (cfg *Config) validate() (totalBits, wordBits int, err error) {
	if cfg.Tech == nil {
		return 0, 0, guard.Configf(cfg.Name, "nil technology node")
	}
	switch {
	case cfg.Bytes > 0 && cfg.Entries > 0:
		return 0, 0, guard.Configf(cfg.Name, "specify Bytes or Entries, not both")
	case cfg.Bytes > 0:
		totalBits = cfg.Bytes * 8
		wordBits = cfg.BlockBits
		if wordBits == 0 {
			wordBits = 512
		}
	case cfg.Entries > 0:
		if cfg.EntryBits <= 0 {
			return 0, 0, guard.Configf(cfg.Name, "Entries given without EntryBits")
		}
		totalBits = cfg.Entries * cfg.EntryBits
		wordBits = cfg.BlockBits
		if wordBits == 0 {
			wordBits = cfg.EntryBits
		}
	default:
		return 0, 0, guard.Configf(cfg.Name, "no capacity given")
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.RWPorts+cfg.RdPorts == 0 && cfg.WrPorts == 0 {
		cfg.RWPorts = 1
	}
	if totalBits < wordBits {
		wordBits = totalBits
	}
	if cfg.Assoc < 0 {
		return 0, 0, guard.Configf(cfg.Name, "negative associativity")
	}
	return totalBits, wordBits, nil
}

// New synthesizes the array described by cfg.
//
// Successful solves are memoized in a process-wide, concurrency-safe
// cache keyed by the canonical form of cfg plus the technology node's
// value fingerprint (see memo.go); repeated and concurrent solves of the
// same structure share one synthesis. Cached results are bit-identical
// to uncached ones. Stats/ResetCache/SetCacheEnabled control the cache.
func New(cfg Config) (*Result, error) {
	totalBits, wordBits, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	key := canonicalKey(&cfg, wordBits)
	return results.Do(0, key.shard(), key, func() (*Result, error) {
		return synthesize(cfg, totalBits, wordBits)
	})
}

// synthesize dispatches one real (uncached) synthesis of a validated
// config.
func synthesize(cfg Config, totalBits, wordBits int) (*Result, error) {
	if cfg.FullyAssoc || cfg.CellKind == CAM {
		return newCAM(cfg, totalBits, wordBits)
	}
	if cfg.CellKind == DFF {
		return newDFFArray(cfg, totalBits, wordBits)
	}

	// Set-associative caches: synthesize data and tag separately.
	if cfg.Assoc > 0 {
		return newCache(cfg, totalBits, wordBits)
	}
	res, err := newRAM(cfg, totalBits, wordBits)
	if err != nil {
		return nil, err
	}
	if cfg.CellKind == EDRAM {
		applyEDRAM(&cfg, res, totalBits)
	}
	return res, nil
}

// ports returns the total cell port count (CAM search ports handled by
// the CAM model separately).
func (cfg *Config) ports() int {
	p := cfg.RWPorts + cfg.RdPorts + cfg.WrPorts
	if p < 1 {
		p = 1
	}
	return p
}

// cellGeometry returns the width/height of one cell including multiport
// growth: each port beyond the first adds one wordline track vertically
// and two bitline tracks horizontally.
func cellGeometry(n *tech.Node, kind CellType, extraPorts int) (w, h float64) {
	var area float64
	switch kind {
	case CAM:
		area = n.CAMCellArea
	case DFF:
		area = n.DFFCellArea
	default:
		area = n.SRAMCellArea
	}
	w = math.Sqrt(area / n.SRAMCellAspect)
	h = n.SRAMCellAspect * w
	pitch := n.Wire(tech.Aggressive, tech.Local).Pitch
	w += 2 * pitch * float64(extraPorts)
	h += pitch * float64(extraPorts)
	return w, h
}

// newRAM synthesizes a plain (non-associative) SRAM array.
func newRAM(cfg Config, totalBits, wordBits int) (*Result, error) {
	best, err := optimize(cfg, totalBits, wordBits)
	if err != nil {
		return nil, err
	}
	return best, nil
}

func objective(cfg *Config, r *Result) float64 {
	switch cfg.Obj {
	case OptEnergyDelay:
		return r.Energy.Read * r.AccessTime
	case OptArea:
		return r.Area
	case OptDelay:
		return r.AccessTime
	default:
		return r.Energy.Read * r.AccessTime * r.AccessTime
	}
}

// sramEnv holds every derived quantity of the SRAM evaluation that is
// invariant across the (rows, column-mux, sub-word) enumeration: device
// parameters, wire classes, cell geometry, FO4, and per-unit leakage
// rates (whose temperature scaling costs an exp() each). Hoisting them
// out of evalSRAM keeps the optimizer's inner loop free of repeated
// device-table lookups and transcendental math.
type sramEnv struct {
	n       *tech.Node
	per     circuit.Ctx
	cellDev tech.Device

	f, wmin      float64
	cellW, cellH float64
	localWire    tech.Wire
	semiWire     tech.Wire
	globalWire   tech.Wire
	fo4          float64
	vdd          float64

	accessW float64 // access transistor width
	vSwing  float64 // bitline read swing (V)
	iCell   float64 // cell read current (A)
	eSense1 float64 // sense-amp energy per sensed bit (J)
	tSense  float64 // sense-amp resolve time (s)

	cellSubPerBit  float64 // subthreshold leakage per stored bit (W)
	cellGatePerBit float64 // gate leakage per stored bit (W)
	periphSubPerW  float64 // subthreshold leakage per meter of periphery width (W/m)
	periphGatePerW float64 // gate leakage per meter of periphery width (W/m)
}

func newSRAMEnv(cfg *Config) *sramEnv {
	n := cfg.Tech
	e := &sramEnv{
		n:       n,
		per:     circuit.NewCtx(n, cfg.Periph, cfg.LongChannel),
		cellDev: n.Device(cfg.Cell, false),
	}
	e.f = n.Feature
	e.wmin = n.MinWidthN()
	e.cellW, e.cellH = cellGeometry(n, SRAM, cfg.ports()-1)
	e.localWire = n.Wire(tech.Aggressive, tech.Local)
	e.semiWire = n.Wire(tech.Aggressive, tech.SemiGlobal)
	e.globalWire = n.Wire(tech.Aggressive, tech.Global)
	e.fo4 = e.per.FO4()
	e.vdd = e.per.Vdd()
	e.accessW = 1.3 * e.f
	e.vSwing = 0.15 * e.vdd
	e.iCell = 0.5 * e.cellDev.IonN * (2 * e.f)
	e.eSense1 = e.per.FullSwingE(10 * e.wmin * e.per.Dev.CgPerW)
	e.tSense = 2 * e.fo4
	e.cellSubPerBit = e.cellDev.Ioff(n.SRAMCellNMOSWidth, n.SRAMCellPMOSWidth, n.Temperature) * e.cellDev.Vdd
	e.cellGatePerBit = e.cellDev.Ig(n.SRAMCellNMOSWidth+n.SRAMCellPMOSWidth) * e.cellDev.Vdd
	e.periphSubPerW = e.per.Dev.Ioff(1, 1, n.Temperature) * e.vdd
	e.periphGatePerW = e.per.Dev.Ig(2) * e.vdd
	return e
}

// optimize enumerates subarray organizations and returns the best feasible
// one. If nothing meets the timing target, the fastest configuration is
// returned with its (longer) actual cycle time, mirroring McPAT's warning
// behavior rather than failing hard.
func optimize(cfg Config, totalBits, wordBits int) (*Result, error) {
	return optimizeEnv(newSRAMEnv(&cfg), cfg, totalBits, wordBits)
}

// optimizeEnv is optimize with a caller-provided invariant environment,
// letting multi-array synthesis (data + tag of a cache) share one env.
func optimizeEnv(env *sramEnv, cfg Config, totalBits, wordBits int) (*Result, error) {
	return optimizeEnvMode(env, cfg, totalBits, wordBits, true)
}

// optimizeEnvMode is the enumeration engine with branch-and-bound
// pruning switchable (the property tests run it both ways and assert the
// same winner). Once a feasible best exists, each remaining organization
// is first screened by a cheap admissible lower bound on its objective
// (and on its cycle time when a TargetCycle is set): every bound term is
// a subset of the non-negative terms the full evaluation sums, computed
// from the same hoisted sub-expressions, so a candidate whose bound
// already exceeds the incumbent cannot win and is skipped without paying
// the buffer-chain / repeated-wire / leakage math. The margin guards
// against the float additions the bound omits re-associating the
// comparison by a few ulps; the selection comparison is strict (<), so
// skipped ties can never have replaced the incumbent either.
func optimizeEnvMode(env *sramEnv, cfg Config, totalBits, wordBits int, prune bool) (*Result, error) {
	var (
		best, fastest, cur Result
		haveBest, haveFast bool
		bestObj            float64
		evaluated, pruned  int
	)
	subWords, nSub := subWordChoices(wordBits)
	// The wordline load and its driver chain depend only on the column
	// count, which recurs across every row count of the enumeration;
	// memoize the (expensive, pure) buffer-chain sizing per cols.
	wlCache := make(map[int]wlEval, 16)

	for rows := 16; rows <= 1024; rows *= 2 {
		row := newRowEnv(env, rows)
		for colMux := 1; colMux <= 32; colMux *= 2 {
			for _, subWord := range subWords[:nSub] {
				cols := subWord * colMux
				if cols < 16 || cols > 8192 {
					continue
				}
				org, ok := planOrg(&cfg, totalBits, wordBits, rows, cols, colMux)
				if !ok {
					continue
				}
				if prune && haveBest && boundExceedsBest(env, &row, &cfg, &org, bestObj) {
					pruned++
					continue
				}
				evalSRAM(env, &row, &cfg, wordBits, &org, wlCache, &cur)
				evaluated++
				if !haveFast || cur.AccessTime < fastest.AccessTime {
					fastest, haveFast = cur, true
				}
				if cfg.TargetCycle > 0 && cur.CycleTime > cfg.TargetCycle {
					continue
				}
				o := objective(&cfg, &cur)
				if !haveBest || o < bestObj {
					best, bestObj, haveBest = cur, o, true
				}
			}
		}
	}
	optOrgsEvaluated.Add(uint64(evaluated))
	optOrgsPruned.Add(uint64(pruned))
	if !haveBest {
		if !haveFast {
			return nil, guard.Infeasiblef(cfg.Name, "no feasible organization for %d bits", totalBits)
		}
		best = fastest
	}
	best.Pruned = pruned
	out := best
	return &out, nil
}

// pruneMargin pads the lower-bound comparisons: the bound sums a subset
// of the evaluation's terms with slightly different association, so it
// may sit a few ulps above the exact value. 1e-9 relative is ~6 orders
// of magnitude above double-rounding noise and far below any real
// objective gap between organizations.
const pruneMargin = 1e-9

// boundExceedsBest reports whether org provably cannot beat the
// incumbent objective (or meet the timing target): its admissible
// objective lower bound exceeds bestObj with margin.
func boundExceedsBest(env *sramEnv, row *rowEnv, cfg *Config, org *orgPlan, bestObj float64) bool {
	// Delay floor: decode + bitline + sense + column mux; omits the
	// wordline, both H-tree traversals, and inter-bank routing.
	delayLB := row.tDecode + row.tBitline + env.tSense + float64(ceilLog2(org.colMux))*0.5*env.fo4
	if cfg.TargetCycle > 0 {
		// Cycle floor: decode + read + sense (omits wordline and the
		// 0.8*tBitline precharge term). An organization whose floor
		// already misses the target can only ever serve as "fastest",
		// which is moot once a feasible best exists.
		if row.tDecode+row.tBitline+env.tSense > cfg.TargetCycle*(1+pruneMargin) {
			return true
		}
	}
	var objLB float64
	switch cfg.Obj {
	case OptEnergyDelay:
		objLB = energyLB(env, row, org) * delayLB
	case OptArea:
		subW := float64(org.cols)*env.cellW + 40*env.f + float64(row.addrBits)*8*env.f
		objLB = float64(org.subarrays) * (subW * row.subH) * arrayOverhead * float64(cfg.Banks)
	case OptDelay:
		objLB = delayLB
	default: // OptED2
		objLB = energyLB(env, row, org) * delayLB * delayLB
	}
	return objLB > bestObj*(1+pruneMargin)
}

// energyLB is the read-energy floor of an organization: bitline swing
// plus sense energy of the active subarrays, omitting decode, H-tree,
// and bank routing. The terms mirror evalSRAM's expressions exactly.
func energyLB(env *sramEnv, row *rowEnv, org *orgPlan) float64 {
	eBitlineRead := float64(org.cols) * row.cBL * env.vdd * env.vSwing
	eSense := float64(org.subWord) * env.eSense1
	return float64(org.activeSubs) * (eBitlineRead + eSense)
}

// subWordChoices yields the per-subarray output widths to consider: the
// full word and power-of-two fractions of it (the word is then spread
// across several active subarrays). The fixed-size return keeps the
// enumeration allocation-free on the cold path.
func subWordChoices(wordBits int) (choices [6]int, n int) {
	choices[0] = wordBits
	n = 1
	for d := 2; d <= 8; d *= 2 {
		if wordBits%d == 0 && wordBits/d >= 8 {
			choices[n] = wordBits / d
			n++
		}
	}
	// Also allow wider subarrays than the word for very small words.
	for m := 2; m <= 4; m *= 2 {
		choices[n] = wordBits * m
		n++
	}
	return choices, n
}

// orgPlan is the integer skeleton of one candidate organization: the
// feasibility screen (subarray count, active-subarray fit, the 4x
// over-provisioning cap) needs no float math, so it runs before any
// circuit evaluation or bound check.
type orgPlan struct {
	rows, cols, colMux    int
	subWord, activeSubs   int
	bitsPerSub, subarrays int
	bankBits              int
}

func planOrg(cfg *Config, totalBits, wordBits, rows, cols, colMux int) (orgPlan, bool) {
	bankBits := (totalBits + cfg.Banks - 1) / cfg.Banks
	bitsPerSub := rows * cols
	subarrays := (bankBits + bitsPerSub - 1) / bitsPerSub
	if subarrays < 1 {
		return orgPlan{}, false
	}
	subWord := cols / colMux
	activeSubs := (wordBits + subWord - 1) / subWord
	if activeSubs > subarrays {
		return orgPlan{}, false
	}
	// Keep silly organizations out: don't allow more than 4x
	// over-provisioned cells.
	if float64(subarrays*bitsPerSub) > 4*float64(bankBits) {
		return orgPlan{}, false
	}
	return orgPlan{
		rows: rows, cols: cols, colMux: colMux,
		subWord: subWord, activeSubs: activeSubs,
		bitsPerSub: bitsPerSub, subarrays: subarrays,
		bankBits: bankBits,
	}, true
}

// rowEnv carries the evaluation terms that depend only on the row count
// (and the shared env): decoder timing/energy, bitline RC, subarray
// height, and the per-row periphery width terms. One rowEnv serves the
// whole (colMux, subWord) inner enumeration for its row count, keeping
// repeated transcendental and RC math out of the inner loop. Every field
// is computed with exactly the expression evalSRAM previously inlined,
// so hoisting cannot move a single bit.
type rowEnv struct {
	addrBits int
	tDecode  float64 // predecode + final decode levels of FO4
	eDecode0 float64 // decoder switching energy before the wordline chain
	cBL      float64 // bitline capacitance
	tBitline float64 // bitline swing time
	subH     float64 // subarray height (sense amp + write driver strip)
	wRowPeri float64 // wordline-driver periphery width term
	wDecPeri float64 // decoder periphery width term
}

func newRowEnv(env *sramEnv, rows int) rowEnv {
	per := &env.per
	// Predecode + final decode: ~2 + log4(rows) logic levels of FO4.
	addrBits := ceilLog2(rows)
	// Energy: predecoders plus one fired row driver; approximated as a
	// wire spanning the subarray height plus gate loads.
	cDecode := float64(rows)*0.5*env.wmin*per.Dev.CgPerW + float64(rows)*env.cellH*env.localWire.CapPerM*0.5
	cBLcell := env.accessW * per.Dev.CjPerW // drain of one access device
	cBL := float64(rows)*cBLcell + float64(rows)*env.cellH*env.localWire.CapPerM
	return rowEnv{
		addrBits: addrBits,
		tDecode:  (2 + float64(addrBits)/2) * env.fo4,
		eDecode0: per.SwitchE(cDecode),
		cBL:      cBL,
		tBitline: cBL * env.vSwing / math.Max(env.iCell, 1e-12),
		subH:     float64(rows)*env.cellH + 60*env.f, // sense amp + write driver strip
		wRowPeri: float64(rows) * 4 * env.wmin,
		wDecPeri: float64(addrBits) * 20 * env.wmin,
	}
}

// arrayOverhead calibrates modeled macro area to published cache
// footprints (e.g. Niagara's 3MB L2 at ~90 mm^2): real memory macros
// land near 45% array efficiency once ECC bits, row/column redundancy,
// BIST, and inter-subarray routing channels are accounted for.
const arrayOverhead = 2.2

// wlEval is one memoized wordline evaluation: load, driver chain, and
// distributed-RC delay, all pure functions of the column count.
type wlEval struct {
	chain       circuit.Chain
	wlWireDelay float64
}

// evalSRAM computes PAT for one feasible organization of a plain SRAM
// array (org passed planOrg). cols = subWord*colMux columns per
// subarray; subWord bits leave each active subarray per access. env and
// row carry the enumeration-invariant and row-invariant derived
// parameters; the result is written into *out so the enumeration loop
// reuses one scratch value instead of copying the full struct per
// candidate.
func evalSRAM(env *sramEnv, row *rowEnv, cfg *Config, wordBits int, org *orgPlan, wlCache map[int]wlEval, out *Result) {
	per := &env.per

	rows, cols, colMux := org.rows, org.cols, org.colMux
	subWord, activeSubs := org.subWord, org.activeSubs
	bankBits, bitsPerSub, subarrays := org.bankBits, org.bitsPerSub, org.subarrays

	cellW := env.cellW
	localWire := env.localWire

	f := env.f
	wmin := env.wmin

	// --- Wordline ---------------------------------------------------
	wl, cached := wlCache[cols]
	if !cached {
		cWL := float64(cols)*(2*env.accessW*per.Dev.CgPerW) + float64(cols)*cellW*localWire.CapPerM
		wl.chain = per.BufferChain(cWL)
		// Distributed RC of the wordline itself: 0.69 * R_total * C_total/2.
		wl.wlWireDelay = 0.69 * (localWire.ResPerM * float64(cols) * cellW) * cWL / 2
		wlCache[cols] = wl
	}
	wlChain := wl.chain
	tWordline := wlChain.Delay + wl.wlWireDelay

	// --- Decoder ----------------------------------------------------
	addrBits := row.addrBits
	tDecode := row.tDecode
	eDecode := row.eDecode0 + wlChain.Energy

	// --- Bitline ----------------------------------------------------
	cBL := row.cBL
	tBitline := row.tBitline
	// Read energy: all columns of active subarrays swing by vSwing.
	eBitlineRead := float64(cols) * cBL * env.vdd * env.vSwing
	// Write: full differential swing on written columns only.
	eBitlineWrite := float64(subWord) * cBL * env.vdd * env.vdd * 2 * 0.5

	// --- Sense amps + column mux -------------------------------------
	tSense := env.tSense
	eSense := float64(subWord) * env.eSense1
	tMux := float64(ceilLog2(colMux)) * 0.5 * env.fo4

	// --- Subarray and bank geometry ----------------------------------
	subW := float64(cols)*cellW + 40*f + float64(addrBits)*8*f // row decoder strip
	subH := row.subH
	subArea := subW * subH
	bankArea := float64(subarrays) * subArea * arrayOverhead
	bankW := math.Sqrt(bankArea)
	bankH := bankArea / bankW

	// --- H-tree within the bank --------------------------------------
	htreeLen := 0.5 * (bankW + bankH)
	htreeIn := per.RepeatedWire(env.semiWire, htreeLen)
	addrInBits := float64(ceilLog2(maxInt(2, bankBits/wordBits)))
	eHtree := (float64(wordBits) + addrInBits) * htreeIn.EnergyPerBit
	tHtree := htreeIn.Delay

	// --- Inter-bank routing -------------------------------------------
	var eBankRoute, tBankRoute float64
	var bankRouteLeakSub, bankRouteLeakGate, bankRouteArea float64
	if cfg.Banks > 1 {
		chipSide := math.Sqrt(bankArea * float64(cfg.Banks))
		route := per.RepeatedWire(env.globalWire, 0.5*chipSide)
		eBankRoute = (float64(wordBits) + addrInBits) * route.EnergyPerBit
		tBankRoute = route.Delay
		bankRouteLeakSub = route.SubLeak * (float64(wordBits) + addrInBits)
		bankRouteLeakGate = route.GateLeak * (float64(wordBits) + addrInBits)
		bankRouteArea = route.Area * (float64(wordBits) + addrInBits)
	}

	access := tHtree + tDecode + tWordline + tBitline + tSense + tMux + tHtree + tBankRoute
	// Cycle limited by decode+read+precharge of one subarray.
	cycle := tDecode + tWordline + tBitline + tSense + tBitline*0.8
	if mn := 6 * env.fo4; cycle < mn {
		cycle = mn
	}

	// --- Energy totals per access -------------------------------------
	a := float64(activeSubs)
	eRead := a*(eDecode+eBitlineRead+eSense) + eHtree + eBankRoute
	eWrite := a*(eDecode+eBitlineWrite) + eHtree + eBankRoute

	// --- Leakage -------------------------------------------------------
	allBits := float64(cfg.Banks) * float64(subarrays) * float64(bitsPerSub)
	cellLeakSub := env.cellSubPerBit * allBits
	cellLeakGate := env.cellGatePerBit * allBits
	// Periphery: one wordline driver per row, sense amps and write
	// drivers per column, decoders.
	periphW := row.wRowPeri + float64(cols)*8*wmin + row.wDecPeri
	periphW *= float64(subarrays * cfg.Banks)
	periphLeakSub := env.periphSubPerW * periphW
	periphLeakGate := env.periphGatePerW * periphW

	totalArea := bankArea*float64(cfg.Banks) + bankRouteArea

	*out = Result{
		PAT: power.PAT{
			Energy: power.Energy{Read: eRead, Write: eWrite},
			Static: power.Static{
				Sub:  cellLeakSub + periphLeakSub + htreeIn.SubLeak + bankRouteLeakSub,
				Gate: cellLeakGate + periphLeakGate + htreeIn.GateLeak + bankRouteLeakGate,
			},
			Area:  totalArea,
			Delay: access,
			Cycle: cycle,
		},
		AccessTime: access,
		CycleTime:  cycle,
		Height:     bankH * math.Sqrt(float64(cfg.Banks)),
		Width:      bankW * math.Sqrt(float64(cfg.Banks)),
		Rows:       rows,
		Cols:       cols,
		Subarrays:  subarrays,
		ColMux:     colMux,
		Banks:      cfg.Banks,
	}
}

// ceilLog2 is ceil(log2(x)) over non-negative ints: bits.Len(x-1) for
// x >= 2. The integer form is exactly equal to the previous
// math.Ceil(math.Log2(...)) for every enumerable input and keeps a
// transcendental call out of the optimizer's inner loop.
func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
