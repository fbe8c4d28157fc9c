package array

// The reference optimizer: the enumeration as it was before the per-row
// geometry slots, with one full evaluation per organization, the
// wordline memoized in a map, and every repeated wire designed and
// placed per call. TestOptimizerMatchesReference holds the optimizer to
// it bit for bit, counters included.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcpat/internal/circuit"
	"mcpat/internal/guard"
	"mcpat/internal/power"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// refRepeatedWire is the one-shot repeated-wire formula the circuit
// package keeps as its own reference.
func refRepeatedWire(c *circuit.Ctx, w tech.Wire, length float64) circuit.WireResult {
	if length <= 0 {
		return circuit.WireResult{}
	}
	wmin := c.Node.MinWidthN()
	r0 := c.Dev.REqN(wmin)
	c0 := c.InvCin(wmin)
	cp := c.InvCself(wmin)
	lopt := math.Sqrt(2 * r0 * (c0 + cp) / (w.ResPerM * w.CapPerM))
	hopt := math.Sqrt(r0 * w.CapPerM / (w.ResPerM * c0))
	n := int(math.Max(1, math.Round(length/lopt)))
	seg := length / float64(n)
	rw, cw := w.ResPerM*seg, w.CapPerM*seg
	rd := r0 / hopt
	cd := c0 * hopt
	cpd := cp * hopt
	segDelay := 0.69*(rd*(cpd+cw+cd)) + 0.69*rw*(cw/2+cd)
	energy := float64(n) * c.SwitchE(cw+cd+cpd)
	sub, gate := c.InvLeak(wmin * hopt)
	return circuit.WireResult{
		Delay:        float64(n) * segDelay,
		EnergyPerBit: energy,
		SubLeak:      float64(n) * sub,
		GateLeak:     float64(n) * gate,
		Area:         float64(n) * (2 * (3 * wmin * hopt) * 4 * c.Node.Feature),
		Repeaters:    n,
		RepeaterSize: hopt,
	}
}

func refOptimize(env *sramEnv, cfg Config, totalBits, wordBits int) (*Result, error) {
	var (
		best, fastest, cur Result
		haveBest, haveFast bool
		bestObj            float64
		evaluated          int
	)
	subWords, nSub := refSubWordChoices(wordBits)
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
	if !haveBest {
		if !haveFast {
			return nil, guard.Infeasiblef(cfg.Name, "no feasible organization for %d bits", totalBits)
		}
		best = fastest
	}
	out := best
	return &out, nil
}

func refSubWordChoices(wordBits int) (choices [6]int, n int) {
	choices[0] = wordBits
	n = 1
	for d := 2; d <= 8; d *= 2 {
		if wordBits%d == 0 && wordBits/d >= 8 {
			choices[n] = wordBits / d
			n++
		}
	}
	for m := 2; m <= 4; m *= 2 {
		choices[n] = wordBits * m
		n++
	}
	return choices, n
}

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

type wlEval struct {
	chain       circuit.Chain
	wlWireDelay float64
}

func evalSRAM(env *sramEnv, row *rowEnv, cfg *Config, wordBits int, org *orgPlan, wlCache map[int]wlEval, out *Result) {
	per := &env.per

	rows, cols, colMux := org.rows, org.cols, org.colMux
	subWord, activeSubs := org.subWord, org.activeSubs
	bankBits, bitsPerSub, subarrays := org.bankBits, org.bitsPerSub, org.subarrays

	cellW := env.cellW
	localWire := env.localWire

	f := env.f
	wmin := env.wmin

	wl, cached := wlCache[cols]
	if !cached {
		cWL := float64(cols)*(2*env.accessW*per.Dev.CgPerW) + float64(cols)*cellW*localWire.CapPerM
		wl.chain = per.BufferChain(cWL)
		wl.wlWireDelay = 0.69 * (localWire.ResPerM * float64(cols) * cellW) * cWL / 2
		wlCache[cols] = wl
	}
	wlChain := wl.chain
	tWordline := wlChain.Delay + wl.wlWireDelay

	addrBits := row.addrBits
	tDecode := row.tDecode
	eDecode := row.eDecode0 + wlChain.Energy

	cBL := row.cBL
	tBitline := row.tBitline
	eBitlineRead := float64(cols) * cBL * env.vdd * env.vSwing
	eBitlineWrite := float64(subWord) * cBL * env.vdd * env.vdd * 2 * 0.5

	tSense := env.tSense
	eSense := float64(subWord) * env.eSense1
	tMux := float64(ceilLog2(colMux)) * 0.5 * env.fo4

	subW := float64(cols)*cellW + 40*f + float64(addrBits)*8*f
	subH := row.subH
	subArea := subW * subH
	bankArea := float64(subarrays) * subArea * arrayOverhead
	bankW := math.Sqrt(bankArea)
	bankH := bankArea / bankW

	htreeLen := 0.5 * (bankW + bankH)
	htreeIn := refRepeatedWire(per, env.n.Wire(tech.Aggressive, tech.SemiGlobal), htreeLen)
	addrInBits := float64(ceilLog2(max(2, bankBits/wordBits)))
	eHtree := (float64(wordBits) + addrInBits) * htreeIn.EnergyPerBit
	tHtree := htreeIn.Delay

	var eBankRoute, tBankRoute float64
	var bankRouteLeakSub, bankRouteLeakGate, bankRouteArea float64
	if cfg.Banks > 1 {
		chipSide := math.Sqrt(bankArea * float64(cfg.Banks))
		route := refRepeatedWire(per, env.n.Wire(tech.Aggressive, tech.Global), 0.5*chipSide)
		eBankRoute = (float64(wordBits) + addrInBits) * route.EnergyPerBit
		tBankRoute = route.Delay
		bankRouteLeakSub = route.SubLeak * (float64(wordBits) + addrInBits)
		bankRouteLeakGate = route.GateLeak * (float64(wordBits) + addrInBits)
		bankRouteArea = route.Area * (float64(wordBits) + addrInBits)
	}

	access := tHtree + tDecode + tWordline + tBitline + tSense + tMux + tHtree + tBankRoute
	cycle := tDecode + tWordline + tBitline + tSense + tBitline*0.8
	if mn := 6 * env.fo4; cycle < mn {
		cycle = mn
	}

	a := float64(activeSubs)
	eRead := a*(eDecode+eBitlineRead+eSense) + eHtree + eBankRoute
	eWrite := a*(eDecode+eBitlineWrite) + eHtree + eBankRoute

	allBits := float64(cfg.Banks) * float64(subarrays) * float64(bitsPerSub)
	cellLeakSub := env.cellSubPerBit * allBits
	cellLeakGate := env.cellGatePerBit * allBits
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

// bitsDiff names the first field of two values of one type whose bits
// differ: floats by math.Float64bits, integers and booleans by value,
// pointers by what they point to. It returns "" for bit-identical values.
func bitsDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		return bitsDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %v", path, a.Kind())
	}
	return ""
}

// refCoverage tallies what the corpus exercised, so a corpus that stops
// reaching a path fails rather than passing vacuously.
type refCoverage struct {
	solves, infeasible, fallback, metTarget int
}

// checkAgainstReference runs the optimizer and the reference on one
// validated array and compares the results and the optimizer counter's
// movement bit for bit.
func checkAgainstReference(t *testing.T, cov *refCoverage, env *sramEnv, cfg Config, totalBits, wordBits int) {
	t.Helper()
	before := OptStats()
	got, gotErr := optimize(env, cfg, totalBits, wordBits)
	mid := OptStats()
	want, wantErr := refOptimize(env, cfg, totalBits, wordBits)
	gotStats, wantStats := mid.Delta(before), OptStats().Delta(mid)
	name := fmt.Sprintf("%s (words %d of %d bits)", cfg.Name, wordBits, totalBits)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
		return
	}
	if gotStats != wantStats {
		t.Errorf("%s: counters moved %+v, reference %+v", name, gotStats, wantStats)
	}
	if d := bitsDiff("Result", reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
		t.Errorf("%s: %s", name, d)
	}
	cov.solves++
	switch {
	case gotErr != nil:
		cov.infeasible++
	case cfg.TargetCycle > 0 && got.CycleTime > cfg.TargetCycle:
		cov.fallback++
	case cfg.TargetCycle > 0:
		cov.metTarget++
	}
}

// checkCacheAgainstReference derives the data and tag arrays the way
// newCache does, holds both to the reference, and checks that newCache
// built the same tag array and data organization from them.
func checkCacheAgainstReference(t *testing.T, cov *refCoverage, cfg Config) {
	t.Helper()
	totalBits, wordBits, err := cfg.validate()
	if err != nil {
		t.Fatalf("%s: validate: %v", cfg.Name, err)
	}
	blockBytes := wordBits / 8
	if blockBytes == 0 {
		blockBytes = 64
	}
	sets := cfg.Bytes / blockBytes / cfg.Assoc
	parallel := cfg.Bytes <= 64*1024
	if cfg.Sequential != nil {
		parallel = !*cfg.Sequential
	}
	env := newSRAMEnv(&cfg)
	dataCfg := cfg
	dataCfg.Assoc, dataCfg.Name = 0, cfg.Name+".data"
	dataWord := wordBits
	if parallel {
		dataWord = wordBits * cfg.Assoc
	}
	dataCfg.BlockBits = dataWord
	tagBits := physAddrBits - ceilLog2(blockBytes) - ceilLog2(sets) + tagStatusBits
	if tagBits < 8 {
		tagBits = 8
	}
	tagCfg := cfg
	tagCfg.Assoc, tagCfg.Bytes, tagCfg.Name = 0, 0, cfg.Name+".tag"
	tagCfg.Entries, tagCfg.EntryBits, tagCfg.BlockBits = sets, tagBits*cfg.Assoc, tagBits*cfg.Assoc
	checkAgainstReference(t, cov, env, dataCfg, totalBits, dataWord)
	checkAgainstReference(t, cov, env, tagCfg, sets*tagBits*cfg.Assoc, tagBits*cfg.Assoc)

	res, err := newCache(cfg, totalBits, wordBits)
	data, dataErr := refOptimize(env, dataCfg, totalBits, dataWord)
	tag, tagErr := refOptimize(env, tagCfg, sets*tagBits*cfg.Assoc, tagBits*cfg.Assoc)
	if dataErr == nil {
		dataErr = tagErr
	}
	if fmt.Sprint(err) != fmt.Sprint(dataErr) {
		t.Errorf("%s: newCache error %v, reference %v", cfg.Name, err, dataErr)
	}
	if err != nil || dataErr != nil {
		return
	}
	if d := bitsDiff("Tag", reflect.ValueOf(res.Tag), reflect.ValueOf(tag)); d != "" {
		t.Errorf("%s: newCache: %s", cfg.Name, d)
	}
	gotOrg := [5]int{res.Rows, res.Cols, res.Subarrays, res.ColMux, res.Banks}
	wantOrg := [5]int{data.Rows, data.Cols, data.Subarrays, data.ColMux, data.Banks}
	if gotOrg != wantOrg {
		t.Errorf("%s: newCache organization %v, reference %v", cfg.Name, gotOrg, wantOrg)
	}
}

// cornerCases holds deliberate corner cases: every objective, banked
// arrays, tight and absent timing targets, and the fastest-fallback path
// where nothing meets the target.
func cornerCases() []Config {
	n32 := techtest.Node(32)
	n22 := techtest.Node(22)
	return []Config{
		{Name: "l2-ed2", Tech: n32, Periph: tech.HP, Cell: tech.LSTP,
			Bytes: 256 << 10, Banks: 4, TargetCycle: 1 / 2.0e9, Obj: OptED2},
		{Name: "l1-delay", Tech: n22, Periph: tech.HP,
			Bytes: 32 << 10, BlockBits: 256, Banks: 1, TargetCycle: 1 / 3.0e9, Obj: OptDelay},
		{Name: "rf-area", Tech: n22, Periph: tech.HP,
			Entries: 128, EntryBits: 64, RdPorts: 4, WrPorts: 2, Obj: OptArea},
		{Name: "buf-ed", Tech: n32, Periph: tech.HP,
			Entries: 64, EntryBits: 128, Obj: OptEnergyDelay},
		{Name: "no-target", Tech: n32, Periph: tech.HP, Cell: tech.LSTP,
			Bytes: 1 << 20, Banks: 8, Obj: OptED2},
		{Name: "impossible-target", Tech: n32, Periph: tech.HP,
			Bytes: 512 << 10, Banks: 2, TargetCycle: 1e-12, Obj: OptED2},
	}
}

// referenceCorpus is a seeded corpus of array configurations spanning
// every objective, bank counts with and without a power of two, absent,
// met and unmeetable cycle targets, odd and wide word widths, SRAM and
// eDRAM cells, and one to four ports. Every fourth entry is a
// set-associative cache, checked through its data and tag arrays.
func referenceCorpus(n int) []Config {
	r := rand.New(rand.NewSource(0x5EED25))
	nodes := tech.Nodes()
	devices := []tech.DeviceType{tech.HP, tech.LSTP, tech.LOP}
	banks := []int{1, 2, 3, 5, 8, 13, 64}
	words := []int{1, 7, 9, 42, 64, 512, 576, 4608}
	targets := []float64{0, 1e-12, 1e-6, 0} // none, unmeetable, met; the last is drawn
	out := make([]Config, 0, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Name:        fmt.Sprintf("ref-%d", i),
			Tech:        techtest.Node(nodes[r.Intn(len(nodes))]),
			Periph:      devices[r.Intn(len(devices))],
			Cell:        devices[r.Intn(len(devices))],
			LongChannel: r.Intn(4) == 0,
			Banks:       banks[r.Intn(len(banks))],
			Obj:         Objective(i % 4),
			TargetCycle: targets[r.Intn(len(targets))],
		}
		if cfg.TargetCycle == 0 && r.Intn(2) == 0 {
			cfg.TargetCycle = 1 / ((0.3 + 3*r.Float64()) * 1e9)
		}
		if r.Intn(3) == 0 {
			cfg.CellKind = EDRAM
		}
		switch ports := 1 + r.Intn(4); r.Intn(3) {
		case 0:
			cfg.RWPorts = ports
		case 1:
			cfg.RdPorts = (ports + 1) / 2
			cfg.WrPorts = ports / 2
		default:
			cfg.RWPorts = 1
			cfg.RdPorts = ports - 1
		}
		word := words[r.Intn(len(words))]
		switch {
		case i%4 == 3:
			cfg.Assoc = 1 << r.Intn(5)
			cfg.Bytes = (16 << 10) << r.Intn(10) // 16KB .. 8MB
			cfg.BlockBits = 256 << r.Intn(2)
			if s := r.Intn(3); s > 0 {
				seq := s == 1
				cfg.Sequential = &seq
			}
		case r.Intn(2) == 0:
			cfg.Bytes = 512 << r.Intn(15) // 512B .. 8MB
			cfg.BlockBits = word
		default:
			cfg.Entries = 8 << r.Intn(12)
			cfg.EntryBits = word
		}
		out = append(out, cfg)
	}
	return out
}

// TestOptimizerMatchesReference holds the optimizer to the reference
// enumeration bit for bit: every float and integer of the winner, the
// error on infeasible arrays, and the optimizer counter's movement.
func TestOptimizerMatchesReference(t *testing.T) {
	var cov refCoverage
	cfgs := append(cornerCases(), referenceCorpus(520)...)
	for _, cfg := range cfgs {
		if cfg.Assoc > 0 {
			checkCacheAgainstReference(t, &cov, cfg)
			continue
		}
		totalBits, wordBits, err := cfg.validate()
		if err != nil {
			t.Fatalf("%s: validate: %v", cfg.Name, err)
		}
		checkAgainstReference(t, &cov, newSRAMEnv(&cfg), cfg, totalBits, wordBits)
	}
	t.Logf("%+v", cov)
	if cov.infeasible == 0 || cov.fallback == 0 || cov.metTarget == 0 {
		t.Errorf("corpus misses a path: %+v", cov)
	}
}
