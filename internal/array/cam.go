package array

import (
	"math"

	"mcpat/internal/circuit"
	"mcpat/internal/power"
	"mcpat/internal/tech"
)

func newPeriphCtx(cfg *Config) circuit.Ctx {
	return circuit.NewCtx(cfg.Tech, cfg.Periph, cfg.LongChannel)
}

// newCAM synthesizes a content-addressable array: TLBs, fully associative
// cache tags, issue-queue wakeup logic, LSQ address search. Each entry has
// tag (searchable) bits plus optional payload bits read out on a match.
//
// Search energy dominates: every search drives all searchlines and
// precharges/discharges all matchlines. Reads/writes behave like a small
// RAM row access.
func newCAM(cfg Config, totalBits, wordBits int) (*Result, error) {
	n := cfg.Tech
	per := newPeriphCtx(&cfg)
	cellDev := n.Device(cfg.Cell, false)

	entries := cfg.Entries
	entryBits := cfg.EntryBits
	if entries == 0 { // byte-sized fully associative cache
		blockBytes := wordBits / 8
		if blockBytes == 0 {
			blockBytes = 64
		}
		entries = cfg.Bytes / blockBytes
		entryBits = wordBits
	}
	tagBits := cfg.TagBits
	if tagBits == 0 {
		tagBits = physAddrBits - ceilLog2(maxInt(entryBits/8, 1)) + tagStatusBits
	}

	searchPorts := cfg.SearchPorts
	if searchPorts == 0 {
		searchPorts = 1
	}
	ports := cfg.ports() + searchPorts

	cellW, cellH := cellGeometry(n, CAM, ports-1)
	local := n.Wire(tech.Aggressive, tech.Local)
	wmin := n.MinWidthN()
	f := n.Feature

	rows := entries
	tagCols := tagBits
	dataCols := entryBits

	// --- Searchlines: one differential pair per tag bit, spanning all rows.
	cSLbit := float64(rows)*(2*1.3*f*per.Dev.CgPerW) + float64(rows)*cellH*local.CapPerM
	slChain := per.BufferChain(cSLbit)
	eSearchLines := float64(tagCols) * (slChain.Energy + per.SwitchE(cSLbit))
	tSearchLines := slChain.Delay + 0.69*local.ResPerM*float64(rows)*cellH*cSLbit/2

	// --- Matchlines: one per row, spanning the tag columns; precharged
	// high, almost all discharge every search.
	cML := float64(tagCols)*(2*1.3*f*per.Dev.CjPerW) + float64(tagCols)*cellW*local.CapPerM
	eMatchLines := float64(rows) * per.FullSwingE(cML)
	iML := 0.5 * per.Dev.IonN * (2 * f)
	tMatchLine := cML * per.Vdd() * 0.5 / math.Max(iML, 1e-12)

	// Priority encoder / match OR: ~log2(rows) levels.
	tEncode := float64(ceilLog2(rows)) * per.FO4()
	eEncode := float64(rows) * per.SwitchE(4*wmin*per.Dev.CgPerW) * 0.25

	eSearch := eSearchLines + eMatchLines + eEncode
	tSearch := tSearchLines + tMatchLine + tEncode

	// --- RAM-mode read/write of the payload (and tag write).
	cBL := float64(rows)*(1.3*f*per.Dev.CjPerW) + float64(rows)*cellH*local.CapPerM
	vSwing := 0.15 * per.Vdd()
	eRead := float64(dataCols)*cBL*per.Vdd()*vSwing + eEncode
	eWrite := float64(dataCols+tagCols) * cBL * per.Vdd() * per.Vdd() * 0.5
	iCell := 0.5 * cellDev.IonN * (2 * f)
	tRead := tEncode + cBL*vSwing/math.Max(iCell, 1e-12) + 2*per.FO4()

	// --- Geometry -----------------------------------------------------
	width := float64(tagCols+dataCols)*cellW + 60*f
	height := float64(rows)*cellH + 60*f
	area := width * height * 1.15

	// --- Leakage --------------------------------------------------------
	bits := float64(rows * (tagCols + dataCols))
	// CAM cells leak ~1.5x an SRAM cell (extra match transistors).
	cellLeakSub := 1.5 * cellDev.Ioff(n.SRAMCellNMOSWidth, n.SRAMCellPMOSWidth) * cellDev.Vdd * bits
	cellLeakGate := 1.5 * cellDev.Ig(n.SRAMCellNMOSWidth+n.SRAMCellPMOSWidth) * cellDev.Vdd * bits
	periphW := float64(rows)*6*wmin + float64(tagCols+dataCols)*6*wmin
	periphLeakSub := per.Dev.Ioff(periphW, periphW) * per.Vdd()
	periphLeakGate := per.Dev.Ig(2*periphW) * per.Vdd()

	access := math.Max(tSearch, tRead)
	cycle := access * 0.9
	if mn := 6 * per.FO4(); cycle < mn {
		cycle = mn
	}

	res := &Result{
		PAT: power.PAT{
			Energy: power.Energy{Read: eRead, Write: eWrite, Search: eSearch},
			Static: power.Static{Sub: cellLeakSub + periphLeakSub, Gate: cellLeakGate + periphLeakGate},
			Area:   area,
			Delay:  access,
			Cycle:  cycle,
		},
		AccessTime: access,
		CycleTime:  cycle,
		Height:     height,
		Width:      width,
		Rows:       rows,
		Cols:       tagCols + dataCols,
		Subarrays:  1,
		ColMux:     1,
		Banks:      1,
	}
	return res, nil
}

// newDFFArray models flip-flop based storage: small, latency-critical,
// heavily multiported structures (fetch/instruction buffers, rename
// checkpoint storage, NoC FIFOs). Reads go through a mux tree; writes
// clock one entry's flip-flops.
func newDFFArray(cfg Config, totalBits, wordBits int) (*Result, error) {
	n := cfg.Tech
	per := newPeriphCtx(&cfg)
	ff := per.NewDFF()

	entries := cfg.Entries
	if entries == 0 {
		entries = maxInt(totalBits/maxInt(wordBits, 1), 1)
	}
	ports := cfg.ports()

	// Read: mux tree over entries for each output bit, plus output driver.
	muxLevels := ceilLog2(entries)
	wmin := n.MinWidthN()
	cMuxPerLevel := 2 * wmin * per.Dev.CjPerW
	eReadBit := float64(muxLevels)*per.SwitchE(cMuxPerLevel)*0.5 + per.SwitchE(per.InvCin(2*wmin))
	eRead := float64(wordBits) * eReadBit
	tRead := float64(muxLevels)*0.7*per.FO4() + per.FO4()

	// Write: clock one entry (always) + toggle ~50% of its data bits.
	eWrite := float64(wordBits) * (ff.EnergyClk + 0.5*ff.EnergyData)

	// Idle clocking of the whole structure is charged to the clock
	// network model, not here; we expose the clock load via area/leak.
	bits := float64(totalBits)
	leakSub := ff.SubLeak * bits
	leakGate := ff.GateLeak * bits
	portFactor := 1 + 0.25*float64(ports-1)
	area := bits*ff.Area*portFactor + bits*float64(muxLevels)*2*wmin*4*n.Feature

	access := tRead
	cycle := access
	if mn := 4 * per.FO4(); cycle < mn {
		cycle = mn
	}

	res := &Result{
		PAT: power.PAT{
			Energy: power.Energy{Read: eRead, Write: eWrite},
			Static: power.Static{Sub: leakSub, Gate: leakGate},
			Area:   area,
			Delay:  access,
			Cycle:  cycle,
		},
		AccessTime: access,
		CycleTime:  cycle,
		Height:     math.Sqrt(area),
		Width:      math.Sqrt(area),
		Rows:       entries,
		Cols:       maxInt(totalBits/maxInt(entries, 1), 1),
		Subarrays:  1,
		ColMux:     1,
		Banks:      1,
	}
	return res, nil
}

// eDRAM modeling. The SRAM machinery synthesizes the organization; this
// adjustment converts cells to 1T1C: ~3.6x denser bit cells, destructive
// reads that pay a restore (write-back) on every access, slower sensing,
// and a refresh power floor proportional to capacity.
const (
	// edramCellAreaRatio is the 1T1C cell area relative to a 6T SRAM cell.
	edramCellAreaRatio = 1.0 / 3.6
	// edramRetentionTime is the refresh interval at the default 360 K
	// junction temperature (retention degrades ~2x per 10 K above that).
	edramRetentionTime = 40e-6
)

func applyEDRAM(cfg *Config, res *Result, totalBits int) {
	per := newPeriphCtx(cfg)
	n := cfg.Tech

	// Density: shrink the cell-dominated part of the area. The periphery
	// fraction (~35% of the macro) does not shrink.
	const periphFrac = 0.35
	res.Area = res.Area * (periphFrac + (1-periphFrac)*edramCellAreaRatio)
	res.Height *= 0.6
	res.Width *= 0.6

	// Destructive read: every read includes a restore (≈ a write).
	res.Energy.Read += res.Energy.Write * 0.8

	// Sensing a 1T1C cell is slower than a 6T differential read.
	res.AccessTime *= 1.5
	res.CycleTime *= 1.8
	res.Delay = res.AccessTime
	res.Cycle = res.CycleTime

	// Cell leakage: no subthreshold path through the storage cell, but
	// refresh sweeps the whole array every retention interval. Refresh
	// energy per bit ≈ one full bitline write at cell granularity.
	cellDev := n.Device(cfg.Cell, false)
	cellSub := cellDev.Ioff(n.SRAMCellNMOSWidth, n.SRAMCellPMOSWidth) *
		cellDev.Vdd * float64(totalBits)
	res.Static.Sub -= cellSub * 0.9 // storage cells stop leaking
	if res.Static.Sub < 0 {
		res.Static.Sub = 0
	}
	refreshEnergyPerBit := per.FullSwingE(2e-15) // ~2 fF restored per cell
	res.RefreshPower = refreshEnergyPerBit * float64(totalBits) / edramRetentionTime
	res.Static.Sub += res.RefreshPower
}
