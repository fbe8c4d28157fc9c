// Package m5compat reads M5/gem5-style statistics dumps (the format the
// original McPAT consumed through its XML generation scripts) and converts
// them into this framework's runtime-statistics vector.
//
// A stats.txt file is a sequence of dumps delimited by
// "---------- Begin Simulation Statistics ----------" lines; each line is
//
//	<name>  <value>  # <description>
//
// Parse keeps one selected dump as a flat name->value map; ToChipStats
// maps the well-known counter names onto per-cycle core activity and
// chip-level traffic rates, averaging across cores (system.cpu0..N or
// system.switch_cpus0..N prefixes both work).
package m5compat

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"mcpat/internal/chip"
	"mcpat/internal/core"
)

// Dump is one parsed statistics dump.
type Dump map[string]float64

const dumpDelimiter = "---------- Begin Simulation Statistics ----------"

// maxLine bounds one statistics line; a longer line fails the stream
// with bufio.ErrTooLong.
const maxLine = 1 << 20

var dumpDelimiterBytes = []byte(dumpDelimiter)

// Parse reads every dump in the stream and returns them in order. Lines
// that do not parse as statistics (histogram rows, comments, nan/inf
// values) are skipped.
//
// Lines are scanned as bytes in place. A statistic name is allocated
// once per stream and shared by every dump that carries it, and each
// dump's map is sized from the previous one.
func Parse(r io.Reader) ([]Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	names := make(map[string]string)
	var dumps []Dump
	var cur Dump
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, dumpDelimiterBytes) {
			cur = make(Dump, len(cur))
			dumps = append(dumps, cur)
			continue
		}
		name, rest := nextField(line)
		val, _ := nextField(rest)
		if len(val) == 0 || name[0] == '#' || !floatStart(val[0]) {
			continue
		}
		v, err := strconv.ParseFloat(string(val), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			// Histogram buckets don't parse; ParseFloat does accept
			// "nan"/"inf" spellings, which gem5 emits for undefined
			// ratios - neither may poison the counter map.
			continue
		}
		if cur == nil {
			// Tolerate files without the delimiter header.
			cur = Dump{}
			dumps = append(dumps, cur)
		}
		key, ok := names[string(name)]
		if !ok {
			key = string(name)
			names[key] = key
		}
		cur[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("m5compat: %w", err)
	}
	if len(dumps) == 0 {
		return nil, fmt.Errorf("m5compat: no statistics found")
	}
	return dumps, nil
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first field of b and the bytes after it. Fields
// split exactly where strings.Fields splits them: at ASCII and Unicode
// white space, never inside invalid UTF-8.
func nextField(b []byte) (field, rest []byte) {
	start := skipWhile(b, 0, true)
	end := skipWhile(b, start, false)
	return b[start:end], b[end:]
}

// skipWhile returns the index of the first rune at or after i whose
// white-space class differs from space.
func skipWhile(b []byte, i int, space bool) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += size
	}
	return i
}

// floatStart reports whether c can begin a string strconv.ParseFloat
// accepts (a sign, digit, '.', or the i/n of inf/nan). Other values are
// skipped without building ParseFloat's error.
func floatStart(c byte) bool {
	switch c {
	case '+', '-', '.', 'i', 'I', 'n', 'N':
		return true
	}
	return '0' <= c && c <= '9'
}

// ParseLast returns the final dump of the stream (the usual choice: the
// region of interest is dumped last).
func ParseLast(r io.Reader) (Dump, error) {
	dumps, err := Parse(r)
	if err != nil {
		return nil, err
	}
	return dumps[len(dumps)-1], nil
}

// cpuCounter is one per-CPU statistic ToChipStats or SimSeconds reads.
type cpuCounter uint8

const (
	ctrNumCycles cpuCounter = iota
	ctrCommittedInsts
	ctrCommitCommittedInsts
	ctrRenamedOperands
	ctrIQInstsIssued
	ctrIQInstsAdded
	ctrROBReads
	ctrROBWrites
	ctrIntRFReads
	ctrIntRFWrites
	ctrFPRFReads
	ctrFPRFWrites
	ctrIntALU
	ctrFPALU
	ctrICacheAccesses
	ctrICacheMisses
	ctrDCacheReads
	ctrDCacheWrites
	ctrDCacheMisses
	ctrBTBLookups
	ctrBPLookups
	numCPUCounters
)

// cpuCounterOf maps the statistic name that follows a "system.cpuN." or
// "system.switch_cpusN." prefix to its counter.
var cpuCounterOf = map[string]cpuCounter{
	"numCycles":                       ctrNumCycles,
	"committedInsts":                  ctrCommittedInsts,
	"commit.committedInsts":           ctrCommitCommittedInsts,
	"rename.RenamedOperands":          ctrRenamedOperands,
	"iq.iqInstsIssued":                ctrIQInstsIssued,
	"iq.iqInstsAdded":                 ctrIQInstsAdded,
	"rob.rob_reads":                   ctrROBReads,
	"rob.rob_writes":                  ctrROBWrites,
	"int_regfile_reads":               ctrIntRFReads,
	"int_regfile_writes":              ctrIntRFWrites,
	"fp_regfile_reads":                ctrFPRFReads,
	"fp_regfile_writes":               ctrFPRFWrites,
	"num_int_alu_accesses":            ctrIntALU,
	"num_fp_alu_accesses":             ctrFPALU,
	"icache.overall_accesses::total":  ctrICacheAccesses,
	"icache.overall_misses::total":    ctrICacheMisses,
	"dcache.ReadReq_accesses::total":  ctrDCacheReads,
	"dcache.WriteReq_accesses::total": ctrDCacheWrites,
	"dcache.overall_misses::total":    ctrDCacheMisses,
	"branchPred.BTBLookups":           ctrBTBLookups,
	"branchPred.lookups":              ctrBPLookups,
}

// cpuFamilies are the per-CPU name prefixes in precedence order: a
// counter that any system.cpu core carries ignores the switch_cpus
// copies.
var cpuFamilies = [...]string{"system.cpu", "system.switch_cpus"}

// coreSum is one counter of one family, summed over its cores.
type coreSum struct {
	sum   float64
	cores int
}

// cpuTable is a dump's per-CPU counters, folded in one scan.
type cpuTable [numCPUCounters][len(cpuFamilies)]coreSum

// coreEntry is one core's contribution to a table slot.
type coreEntry struct {
	ctr  cpuCounter
	fam  int
	core string // the index digits; "" for the unnumbered single-core form
	v    float64
}

// fold sums every per-CPU entry of d into the zero table t in a single
// scan of the dump. When a counter has three or more contributors its
// sum would depend on map iteration order, so the entries are then added
// in core-index order (see compareCores); one or two addends commute
// exactly and need no sort.
func (t *cpuTable) fold(d Dump) {
	var buf [64]coreEntry
	entries := buf[:0]
	ordered := false
	for name, v := range d {
		fam, core, c, ok := parseCPUStat(name)
		if !ok {
			continue
		}
		s := &t[c][fam]
		s.cores++
		ordered = ordered || s.cores > 2
		entries = append(entries, coreEntry{ctr: c, fam: fam, core: core, v: v})
	}
	if ordered {
		slices.SortFunc(entries, func(a, b coreEntry) int {
			if c := cmp.Compare(a.ctr, b.ctr); c != 0 {
				return c
			}
			if c := cmp.Compare(a.fam, b.fam); c != 0 {
				return c
			}
			return compareCores(a.core, b.core)
		})
	}
	for _, e := range entries {
		t[e.ctr][e.fam].sum += e.v
	}
}

// parseCPUStat splits a per-CPU statistic name - a cpuFamilies prefix,
// the core index digits (none for the single-core form), "." and the
// statistic - into its family, core index and counter. ok is false for
// any other name.
func parseCPUStat(name string) (fam int, core string, c cpuCounter, ok bool) {
	for f, prefix := range cpuFamilies {
		rest, found := strings.CutPrefix(name, prefix)
		if !found {
			continue
		}
		i := 0
		for i < len(rest) && '0' <= rest[i] && rest[i] <= '9' {
			i++
		}
		if i < len(rest) && rest[i] == '.' {
			c, ok = cpuCounterOf[rest[i+1:]]
		}
		return f, rest[:i], c, ok
	}
	return 0, "", 0, false
}

// compareCores orders core indexes numerically, the unnumbered form
// first; numerically equal indexes order by their zero padding.
func compareCores(a, b string) int {
	ta, tb := strings.TrimLeft(a, "0"), strings.TrimLeft(b, "0")
	if c := cmp.Compare(len(ta), len(tb)); c != 0 {
		return c
	}
	if c := strings.Compare(ta, tb); c != 0 {
		return c
	}
	return cmp.Compare(len(a), len(b))
}

// get returns counter c summed over the cores of the first family that
// carries it, and how many cores that is.
func (t *cpuTable) get(c cpuCounter) (sum float64, cores int) {
	for _, s := range t[c] {
		if s.cores > 0 {
			return s.sum, s.cores
		}
	}
	return 0, 0
}

// first returns the first present statistic among names.
func (d Dump) first(names ...string) (float64, bool) {
	for _, n := range names {
		if v, ok := d[n]; ok {
			return v, true
		}
	}
	return 0, false
}

// ToChipStats converts a dump into the chip statistics vector for a chip
// with the given core count and clock. Cycle counts come from the dump
// itself (numCycles / sim_seconds x clock). Missing counters simply leave
// their activity at zero - the same graceful degradation the original
// scripts exhibit.
func ToChipStats(d Dump, clockHz float64, numCores int) (*chip.Stats, error) {
	if clockHz <= 0 || numCores <= 0 {
		return nil, fmt.Errorf("m5compat: clock and core count required")
	}
	var cpu cpuTable
	cpu.fold(d)
	cycles, nc := cpu.get(ctrNumCycles)
	if nc > 0 {
		cycles /= float64(nc) // average per core
	} else if secs, ok := d.first("sim_seconds", "simSeconds"); ok {
		cycles = secs * clockHz
	}
	if cycles <= 0 {
		return nil, fmt.Errorf("m5compat: no cycle count (numCycles or sim_seconds) in dump")
	}
	seconds := cycles / clockHz

	perCycle := func(c cpuCounter) float64 {
		v, n := cpu.get(c)
		if n == 0 {
			return 0
		}
		return v / float64(n) / cycles
	}

	act := core.Activity{
		ICacheAccess: perCycle(ctrICacheAccesses),
		Decode:       perCycle(ctrCommittedInsts),
		Rename:       perCycle(ctrRenamedOperands),
		IQIssue:      perCycle(ctrIQInstsIssued),
		IQWakeup:     perCycle(ctrIQInstsIssued),
		IQWrite:      perCycle(ctrIQInstsAdded),
		ROBAcc:       perCycle(ctrROBReads) + perCycle(ctrROBWrites),
		RFRead:       perCycle(ctrIntRFReads),
		RFWrite:      perCycle(ctrIntRFWrites),
		FPRFRead:     perCycle(ctrFPRFReads),
		FPRFWrite:    perCycle(ctrFPRFWrites),
		IntOp:        perCycle(ctrIntALU),
		FPOp:         perCycle(ctrFPALU),
		DCacheRead:   perCycle(ctrDCacheReads),
		DCacheWrite:  perCycle(ctrDCacheWrites),
		CacheMiss:    perCycle(ctrDCacheMisses) + perCycle(ctrICacheMisses),
		BTBAccess:    perCycle(ctrBTBLookups),
		PredAccess:   perCycle(ctrBPLookups),
	}
	if act.Decode == 0 {
		act.Decode = perCycle(ctrCommitCommittedInsts)
	}
	if act.IntOp == 0 {
		act.IntOp = act.Decode * 0.5 // mix fallback
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
		// Split reads/writes with the common 70/30 ratio unless explicit.
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
	if f, bad := firstNonFinite(reflect.ValueOf(stats).Elem()); bad {
		// Extreme but individually-finite counters can still overflow a
		// rate division (huge count over a denormal cycle time); such a
		// dump is rejected rather than fed to the power models.
		return nil, fmt.Errorf("m5compat: non-finite statistic %s", f)
	}
	return stats, nil
}

// firstNonFinite walks the float64 fields of a statistics struct (depth
// first) and reports the dotted field path of the first NaN/Inf. The
// path is built only once one is found.
func firstNonFinite(v reflect.Value) (path string, found bool) {
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		return "", math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sub, ok := firstNonFinite(v.Field(i)); ok {
				name := v.Type().Field(i).Name
				if sub != "" {
					name += "." + sub
				}
				return name, true
			}
		}
	}
	return "", false
}
