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
	res, err := optimize(newSRAMEnv(&cfg), cfg, totalBits, wordBits)
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
// parameters, wire classes, one repeater design per repeated wire class,
// cell geometry, FO4, and per-unit leakage rates. Hoisting them out of
// the enumeration keeps the optimizer's inner loop free of repeated
// device-table lookups and transcendental math.
type sramEnv struct {
	n       *tech.Node
	per     circuit.Ctx
	cellDev tech.Device

	f, wmin      float64
	cellW, cellH float64
	localWire    tech.Wire
	htree        circuit.Repeater // semi-global H-tree inside a bank
	bankRoute    circuit.Repeater // global route between banks
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
	e.htree = e.per.Repeater(n.Wire(tech.Aggressive, tech.SemiGlobal))
	e.bankRoute = e.per.Repeater(n.Wire(tech.Aggressive, tech.Global))
	e.fo4 = e.per.FO4()
	e.vdd = e.per.Vdd()
	e.accessW = 1.3 * e.f
	e.vSwing = 0.15 * e.vdd
	e.iCell = 0.5 * e.cellDev.IonN * (2 * e.f)
	e.eSense1 = e.per.FullSwingE(10 * e.wmin * e.per.Dev.CgPerW)
	e.tSense = 2 * e.fo4
	e.cellSubPerBit = e.cellDev.Ioff(n.SRAMCellNMOSWidth, n.SRAMCellPMOSWidth) * e.cellDev.Vdd
	e.cellGatePerBit = e.cellDev.Ig(n.SRAMCellNMOSWidth+n.SRAMCellPMOSWidth) * e.cellDev.Vdd
	e.periphSubPerW = e.per.Dev.Ioff(1, 1) * e.vdd
	e.periphGatePerW = e.per.Dev.Ig(2) * e.vdd
	return e
}

// optimize enumerates every subarray organization and returns the best
// feasible one. If nothing meets the timing target, the fastest
// configuration is returned with its (longer) actual cycle time,
// mirroring McPAT's warning behavior rather than failing hard. env is
// the enumeration-invariant environment, which the data and tag arrays
// of a cache share.
//
// Every column count is wordBits·2^k, and distinct (column-mux,
// sub-word) pairs land on the same one, so the work is done once per
// distinct quantity: the wordline once per column count for the whole
// solve, the bank geometry, wires, leakage and area once per (rows,
// cols) in a geometry slot reset for each row, and only the column-mux
// and sub-word terms per organization.
func optimize(env *sramEnv, cfg Config, totalBits, wordBits int) (*Result, error) {
	var (
		best, fastest, cur Result
		haveBest, haveFast bool
		bestObj            float64
		evaluated          int
		wls                [colSlots]wordline
		geo                [colSlots]geometry
	)
	subWords, nSub := subWordChoices(env, wordBits)
	bankBits := (totalBits + cfg.Banks - 1) / cfg.Banks
	// Data plus address bits ride the H-tree and the bank route (a word
	// under one bit reaches no organization).
	addrIn := float64(wordBits) + float64(ceilLog2(maxInt(2, bankBits/maxInt(wordBits, 1))))
	cur.Banks = cfg.Banks

	for rows := 16; rows <= 1024; rows *= 2 {
		row := newRowEnv(env, rows)
		geo = [colSlots]geometry{}
		for mux := 0; mux <= 5; mux++ {
			colMux := 1 << mux
			tMux := float64(ceilLog2(colMux)) * 0.5 * env.fo4
			for i := range subWords[:nSub] {
				sw := &subWords[i]
				cols := sw.bits * colMux
				if cols < 16 || cols > 8192 {
					continue
				}
				slot := mux + sw.shift + 3
				g := &geo[slot]
				if g.cols == 0 { // not planned yet in this row
					g.plan(rows, cols, bankBits)
				}
				if sw.active > g.subarrays {
					continue
				}
				if !g.filled {
					if !wls[slot].done {
						wls[slot] = newWordline(env, cols)
					}
					g.fill(env, &row, cfg.Banks, &wls[slot], addrIn)
				}
				evalOrg(env, &row, g, sw, colMux, tMux, &cur)
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
	if !haveBest {
		if !haveFast {
			return nil, guard.Infeasiblef(cfg.Name, "no feasible organization for %d bits", totalBits)
		}
		best = fastest
	}
	out := best
	return &out, nil
}

// colSlots is the number of column counts a solve can meet: every
// organization has cols = wordBits·2^k with k in [-3, 7] (a sub-word of
// wordBits/8 … 4·wordBits times a column mux of 1 … 32), kept at slot
// k+3.
const colSlots = 11

// subWord is one per-subarray output width a solve considers: its bit
// count, its log2 ratio to the word (its column slot's offset), the
// subarrays an access activates to deliver the word, and their sense
// energy.
type subWord struct {
	bits, shift, active int
	eSense              float64
}

// subWordChoices yields the per-subarray output widths to consider: the
// full word and power-of-two fractions of it (the word is then spread
// across several active subarrays). The fixed-size return keeps the
// enumeration allocation-free on the cold path.
func subWordChoices(env *sramEnv, wordBits int) (choices [6]subWord, n int) {
	choices[0] = subWord{bits: wordBits}
	n = 1
	for d, shift := 2, -1; d <= 8; d, shift = d*2, shift-1 {
		if wordBits%d == 0 && wordBits/d >= 8 {
			choices[n] = subWord{bits: wordBits / d, shift: shift}
			n++
		}
	}
	// Also allow wider subarrays than the word for very small words.
	for m, shift := 2, 1; m <= 4; m, shift = m*2, shift+1 {
		choices[n] = subWord{bits: wordBits * m, shift: shift}
		n++
	}
	for i := range choices[:n] {
		sw := &choices[i]
		// A sub-word under one bit never reaches 16 columns.
		sw.active = (wordBits + sw.bits - 1) / maxInt(sw.bits, 1)
		sw.eSense = float64(sw.bits) * env.eSense1
	}
	return choices, n
}

// rowEnv carries the evaluation terms that depend only on the row count
// (and the shared env): decoder timing/energy, bitline RC, subarray
// height, and the per-row periphery width terms. One rowEnv serves the
// whole (colMux, subWord) inner enumeration for its row count, keeping
// repeated transcendental and RC math out of the inner loop.
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

// wordline is the wordline of one column count: its driver chain's delay
// plus the line's distributed-RC delay, and the chain's energy.
type wordline struct {
	done bool
	t, e float64
}

func newWordline(env *sramEnv, cols int) wordline {
	per := &env.per
	cWL := float64(cols)*(2*env.accessW*per.Dev.CgPerW) + float64(cols)*env.cellW*env.localWire.CapPerM
	chain := per.BufferChain(cWL)
	// Distributed RC of the wordline itself: 0.69 * R_total * C_total/2.
	wlWireDelay := 0.69 * (env.localWire.ResPerM * float64(cols) * env.cellW) * cWL / 2
	return wordline{done: true, t: chain.Delay + wlWireDelay, e: chain.Energy}
}

// geometry holds one (rows, cols) pair's evaluation terms. plan fills
// the integer skeleton, the feasibility screen that needs no float math
// (subarray count and the 4x over-provisioning cap); fill adds the float
// terms on the first evaluation that reaches the pair, so a pair no
// sub-word fits never pays them. Both are pure functions of (rows, cols)
// within a solve.
type geometry struct {
	rows, cols, subarrays int
	filled                bool

	tPre          float64 // H-tree in + decode + wordline + bitline + sense
	tHtree        float64 // one H-tree traversal
	tBankRoute    float64
	cycle         float64
	eDecode       float64 // decoder + wordline chain energy
	eDecRead      float64 // eDecode + read bitline swing
	eHtree        float64
	eBankRoute    float64
	static        power.Static
	area          float64
	height, width float64
}

func (g *geometry) plan(rows, cols, bankBits int) {
	bitsPerSub := rows * cols
	g.rows, g.cols = rows, cols
	g.subarrays = (bankBits + bitsPerSub - 1) / bitsPerSub
	// Keep silly organizations out: don't allow more than 4x
	// over-provisioned cells. An unfit pair keeps no subarrays, so no
	// sub-word (each needs at least one) fits it.
	if float64(g.subarrays*bitsPerSub) > 4*float64(bankBits) {
		g.subarrays = 0
	}
}

// fill computes the pair's bank geometry, H-tree and bank-route wires,
// leakage and area. addrIn is the data plus address bits the wires carry.
func (g *geometry) fill(env *sramEnv, row *rowEnv, banks int, wl *wordline, addrIn float64) {
	// --- Subarray and bank geometry ----------------------------------
	subW := float64(g.cols)*env.cellW + 40*env.f + float64(row.addrBits)*8*env.f // row decoder strip
	subArea := subW * row.subH
	bankArea := float64(g.subarrays) * subArea * arrayOverhead
	bankW := math.Sqrt(bankArea)
	bankH := bankArea / bankW

	// --- H-tree within the bank and inter-bank routing -----------------
	htree := env.htree.Wire(0.5 * (bankW + bankH))
	var route circuit.WireResult
	if banks > 1 {
		chipSide := math.Sqrt(bankArea * float64(banks))
		route = env.bankRoute.Wire(0.5 * chipSide)
	}
	g.eHtree = addrIn * htree.EnergyPerBit
	g.tHtree = htree.Delay
	g.eBankRoute = addrIn * route.EnergyPerBit
	g.tBankRoute = route.Delay

	g.tPre = g.tHtree + row.tDecode + wl.t + row.tBitline + env.tSense
	// Cycle limited by decode+read+precharge of one subarray.
	g.cycle = row.tDecode + wl.t + row.tBitline + env.tSense + row.tBitline*0.8
	if mn := 6 * env.fo4; g.cycle < mn {
		g.cycle = mn
	}
	g.eDecode = row.eDecode0 + wl.e
	// Read energy: all columns of active subarrays swing by vSwing.
	eBitlineRead := float64(g.cols) * row.cBL * env.vdd * env.vSwing
	g.eDecRead = g.eDecode + eBitlineRead

	// --- Leakage -------------------------------------------------------
	allBits := float64(banks) * float64(g.subarrays) * float64(g.rows*g.cols)
	cellLeakSub := env.cellSubPerBit * allBits
	cellLeakGate := env.cellGatePerBit * allBits
	// Periphery: one wordline driver per row, sense amps and write
	// drivers per column, decoders.
	periphW := row.wRowPeri + float64(g.cols)*8*env.wmin + row.wDecPeri
	periphW *= float64(g.subarrays * banks)
	periphLeakSub := env.periphSubPerW * periphW
	periphLeakGate := env.periphGatePerW * periphW
	g.static = power.Static{
		Sub:  cellLeakSub + periphLeakSub + htree.SubLeak + route.SubLeak*addrIn,
		Gate: cellLeakGate + periphLeakGate + htree.GateLeak + route.GateLeak*addrIn,
	}

	g.area = bankArea*float64(banks) + route.Area*addrIn
	g.height = bankH * math.Sqrt(float64(banks))
	g.width = bankW * math.Sqrt(float64(banks))
	g.filled = true
}

// evalOrg writes one organization's PAT into *out: the filled geometry's
// terms plus the column mux's delay and the sub-word's sense and write
// energy, summed in the evaluation's operand order. Only the fields an
// organization sets are written; the enumeration reuses one scratch
// Result.
func evalOrg(env *sramEnv, row *rowEnv, g *geometry, sw *subWord, colMux int, tMux float64, out *Result) {
	// Write: full differential swing on written columns only.
	eBitlineWrite := float64(sw.bits) * row.cBL * env.vdd * env.vdd * 2 * 0.5
	access := g.tPre + tMux + g.tHtree + g.tBankRoute
	a := float64(sw.active)
	out.Energy.Read = a*(g.eDecRead+sw.eSense) + g.eHtree + g.eBankRoute
	out.Energy.Write = a*(g.eDecode+eBitlineWrite) + g.eHtree + g.eBankRoute
	out.Static = g.static
	out.Area = g.area
	out.Delay, out.AccessTime = access, access
	out.Cycle, out.CycleTime = g.cycle, g.cycle
	out.Height, out.Width = g.height, g.width
	out.Rows, out.Cols, out.Subarrays, out.ColMux = g.rows, g.cols, g.subarrays, colMux
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
