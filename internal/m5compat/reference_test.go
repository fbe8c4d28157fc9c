package m5compat

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/big"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"mcpat/internal/chip"
	"mcpat/internal/core"
)

// This file keeps the straightforward reader as a test-only oracle: a
// strings.Fields line parser and one walk of the whole dump per counter,
// summing each counter in core-index order. FuzzParseMatchesReference
// holds Parse, ToChipStats and SimSeconds to it bit for bit.

func refParse(r io.Reader) ([]Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var dumps []Dump
	var cur Dump
	for sc.Scan() {
		lineText := sc.Text()
		if strings.Contains(lineText, dumpDelimiter) {
			cur = Dump{}
			dumps = append(dumps, cur)
			continue
		}
		fields := strings.Fields(lineText)
		if len(fields) < 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if cur == nil {
			cur = Dump{}
			dumps = append(dumps, cur)
		}
		cur[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("m5compat: %w", err)
	}
	if len(dumps) == 0 {
		return nil, fmt.Errorf("m5compat: no statistics found")
	}
	return dumps, nil
}

// refPerCPU sums one per-CPU statistic over the cores of the first
// prefix that carries it, in core-index order.
func refPerCPU(d Dump, suffix string) (float64, int) {
	type term struct {
		core string
		v    float64
	}
	for _, prefix := range []string{"system.cpu", "system.switch_cpus"} {
		var terms []term
		for name, v := range d {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			rest := name[len(prefix):]
			i := 0
			for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
				i++
			}
			if rest[i:] == "."+suffix {
				terms = append(terms, term{rest[:i], v})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sort.Slice(terms, func(a, b int) bool { return refCoreLess(terms[a].core, terms[b].core) })
		sum := 0.0
		for _, t := range terms {
			sum += t.v
		}
		return sum, len(terms)
	}
	return 0, 0
}

// refCoreLess: the unnumbered form first, then by numeric value, then
// by zero padding.
func refCoreLess(a, b string) bool {
	if a == "" || b == "" {
		return a == "" && b != ""
	}
	x, _ := new(big.Int).SetString(a, 10)
	y, _ := new(big.Int).SetString(b, 10)
	if c := x.Cmp(y); c != 0 {
		return c < 0
	}
	return len(a) < len(b)
}

func refToChipStats(d Dump, clockHz float64, numCores int) (*chip.Stats, error) {
	if clockHz <= 0 || numCores <= 0 {
		return nil, fmt.Errorf("m5compat: clock and core count required")
	}
	cycles, nc := refPerCPU(d, "numCycles")
	if nc > 0 {
		cycles /= float64(nc)
	} else if secs, ok := d.first("sim_seconds", "simSeconds"); ok {
		cycles = secs * clockHz
	}
	if cycles <= 0 {
		return nil, fmt.Errorf("m5compat: no cycle count (numCycles or sim_seconds) in dump")
	}
	seconds := cycles / clockHz
	perCycle := func(suffix string) float64 {
		v, n := refPerCPU(d, suffix)
		if n == 0 {
			return 0
		}
		return v / float64(n) / cycles
	}
	act := core.Activity{
		ICacheAccess: perCycle("icache.overall_accesses::total"),
		Decode:       perCycle("committedInsts"),
		Rename:       perCycle("rename.RenamedOperands"),
		IQIssue:      perCycle("iq.iqInstsIssued"),
		IQWakeup:     perCycle("iq.iqInstsIssued"),
		IQWrite:      perCycle("iq.iqInstsAdded"),
		ROBAcc:       perCycle("rob.rob_reads") + perCycle("rob.rob_writes"),
		RFRead:       perCycle("int_regfile_reads"),
		RFWrite:      perCycle("int_regfile_writes"),
		FPRFRead:     perCycle("fp_regfile_reads"),
		FPRFWrite:    perCycle("fp_regfile_writes"),
		IntOp:        perCycle("num_int_alu_accesses"),
		FPOp:         perCycle("num_fp_alu_accesses"),
		DCacheRead:   perCycle("dcache.ReadReq_accesses::total"),
		DCacheWrite:  perCycle("dcache.WriteReq_accesses::total"),
		CacheMiss:    perCycle("dcache.overall_misses::total") + perCycle("icache.overall_misses::total"),
		BTBAccess:    perCycle("branchPred.BTBLookups"),
		PredAccess:   perCycle("branchPred.lookups"),
	}
	if act.Decode == 0 {
		act.Decode = perCycle("commit.committedInsts")
	}
	if act.IntOp == 0 {
		act.IntOp = act.Decode * 0.5
	}
	act.ITLBAccess = act.ICacheAccess
	act.DTLBAccess = act.DCacheRead + act.DCacheWrite
	act.LSQAccess = act.DTLBAccess
	act.LSQSearch = act.DCacheWrite
	act.Bypass = act.IntOp + act.FPOp + act.DCacheRead
	ipc := act.Decode
	if ipc > 1 {
		ipc = 1
	}
	act.PipelineDuty = ipc

	stats := &chip.Stats{CoreRun: act}
	if v, ok := d.first("system.l2.overall_accesses::total", "system.l2cache.overall_accesses::total"); ok {
		rd, rok := d.first("system.l2.ReadReq_accesses::total")
		wr, wok := d.first("system.l2.WriteReq_accesses::total")
		if rok || wok {
			stats.L2Reads = rd / seconds
			stats.L2Writes = wr / seconds
		} else {
			stats.L2Reads = 0.7 * v / seconds
			stats.L2Writes = 0.3 * v / seconds
		}
	}
	if v, ok := d.first("system.mem_ctrls.num_reads::total", "system.physmem.num_reads::total"); ok {
		w, _ := d.first("system.mem_ctrls.num_writes::total", "system.physmem.num_writes::total")
		stats.MCAccesses = (v + w) / seconds
	}
	if v, ok := d.first("system.tol2bus.pkt_count::total"); ok {
		stats.NoCFlits = v / seconds
	}
	if f := refFirstNonFinite(reflect.ValueOf(stats).Elem(), ""); f != "" {
		return nil, fmt.Errorf("m5compat: non-finite statistic %s", strings.TrimPrefix(f, "."))
	}
	return stats, nil
}

func refFirstNonFinite(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := refFirstNonFinite(v.Field(i), path+"."+v.Type().Field(i).Name); f != "" {
				return f
			}
		}
	}
	return ""
}

func refSimSeconds(d Dump, clockHz float64) (float64, error) {
	if secs, ok := d.first("sim_seconds", "simSeconds"); ok && secs > 0 {
		return secs, nil
	}
	if clockHz <= 0 {
		return 0, fmt.Errorf("m5compat: clock required to derive interval duration from cycles")
	}
	if cycles, n := refPerCPU(d, "numCycles"); n > 0 {
		return cycles / float64(n) / clockHz, nil
	}
	return 0, fmt.Errorf("m5compat: no duration (sim_seconds or numCycles) in dump")
}
