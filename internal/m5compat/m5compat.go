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
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// dump's map is sized from the previous one. The scanner's buffer starts
// at 4 KiB, far above a statistics line (~110 bytes), and doubles up to
// maxLine for a longer one.
func Parse(r io.Reader) ([]Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4<<10), maxLine)
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
		v, ok := parseValue(val)
		if !ok {
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

// maxExactDigits is the longest run of decimal digits whose value is
// below 2^53, so float64 holds it exactly.
const maxExactDigits = 15

// parseValue converts a value field as strconv.ParseFloat does, and
// reports false for a field it rejects and for the NaN and ±Inf it
// accepts: histogram buckets don't parse, and gem5 writes nan/inf for
// undefined ratios - neither may poison the counter map. A field of 1
// to 15 decimal digits is converted directly: its value is an integer
// below 2^53, which ParseFloat returns exactly.
func parseValue(b []byte) (float64, bool) {
	if 0 < len(b) && len(b) <= maxExactDigits {
		var n uint64
		i := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			n = n*10 + uint64(b[i]-'0')
		}
		if i == len(b) {
			return float64(n), true
		}
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
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

// Word-wise scanning: eight spaces, and the bytes 0x21-0x7f (printable
// ASCII and DEL), which are never white space.
const (
	spaces8 = 0x2020202020202020
	lo8     = 0x2121212121212121
	hi8     = 0x8080808080808080
)

// skipWhile returns the index of the first rune at or after i whose
// white-space class differs from space. It first steps eight bytes at a
// time: over spaces while skipping space, and over bytes in 0x21-0x7f
// while skipping a field. In the word that stops it, the lowest flagged
// byte is the first one out of class (a byte below 0x21 borrows into its
// high bit when lo8 is subtracted, a byte from 0x80 up has it set
// already, and no borrow reaches below the first such byte); the rune
// loop goes on from there.
func skipWhile(b []byte, i int, space bool) int {
	if space {
		for i+8 <= len(b) {
			if x := binary.LittleEndian.Uint64(b[i:]) ^ spaces8; x != 0 {
				i += bits.TrailingZeros64(x) / 8
				break
			}
			i += 8
		}
	} else {
		for i+8 <= len(b) {
			w := binary.LittleEndian.Uint64(b[i:])
			if m := ((w - lo8) | w) & hi8; m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
			i += 8
		}
	}
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
func cpuCounterOf(stat string) (cpuCounter, bool) {
	switch stat {
	case "numCycles":
		return ctrNumCycles, true
	case "committedInsts":
		return ctrCommittedInsts, true
	case "commit.committedInsts":
		return ctrCommitCommittedInsts, true
	case "rename.RenamedOperands":
		return ctrRenamedOperands, true
	case "iq.iqInstsIssued":
		return ctrIQInstsIssued, true
	case "iq.iqInstsAdded":
		return ctrIQInstsAdded, true
	case "rob.rob_reads":
		return ctrROBReads, true
	case "rob.rob_writes":
		return ctrROBWrites, true
	case "int_regfile_reads":
		return ctrIntRFReads, true
	case "int_regfile_writes":
		return ctrIntRFWrites, true
	case "fp_regfile_reads":
		return ctrFPRFReads, true
	case "fp_regfile_writes":
		return ctrFPRFWrites, true
	case "num_int_alu_accesses":
		return ctrIntALU, true
	case "num_fp_alu_accesses":
		return ctrFPALU, true
	case "icache.overall_accesses::total":
		return ctrICacheAccesses, true
	case "icache.overall_misses::total":
		return ctrICacheMisses, true
	case "dcache.ReadReq_accesses::total":
		return ctrDCacheReads, true
	case "dcache.WriteReq_accesses::total":
		return ctrDCacheWrites, true
	case "dcache.overall_misses::total":
		return ctrDCacheMisses, true
	case "branchPred.BTBLookups":
		return ctrBTBLookups, true
	case "branchPred.lookups":
		return ctrBPLookups, true
	}
	return 0, false
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

// fold sums every per-CPU entry of d into the zero table t in a single
// scan of the dump. One or two addends commute exactly, so they are
// added in map iteration order. A sum of three or more would depend on
// that order, so the slots that have them are summed again in core-index
// order (see sumInCoreOrder).
func (t *cpuTable) fold(d Dump) {
	ordered := false
	for name, v := range d {
		fam, _, c, ok := parseCPUStat(name)
		if !ok {
			continue
		}
		s := &t[c][fam]
		s.sum += v
		s.cores++
		ordered = ordered || s.cores > 2
	}
	if ordered {
		t.sumInCoreOrder(d)
	}
}

// coreEntry is one core's contribution to a table slot.
type coreEntry struct {
	ctr  cpuCounter
	fam  int
	core string // the index digits; "" for the unnumbered single-core form
	v    float64
}

// sumInCoreOrder replaces the sum of every slot with three or more
// contributors by the sum of its entries in core-index order (see
// compareCores).
func (t *cpuTable) sumInCoreOrder(d Dump) {
	var buf [64]coreEntry
	entries := buf[:0]
	for name, v := range d {
		fam, core, c, ok := parseCPUStat(name)
		if ok && t[c][fam].cores > 2 {
			entries = append(entries, coreEntry{ctr: c, fam: fam, core: core, v: v})
		}
	}
	slices.SortFunc(entries, func(a, b coreEntry) int {
		if c := cmp.Compare(a.ctr, b.ctr); c != 0 {
			return c
		}
		if c := cmp.Compare(a.fam, b.fam); c != 0 {
			return c
		}
		return compareCores(a.core, b.core)
	})
	for _, e := range entries {
		t[e.ctr][e.fam].sum = 0
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
			c, ok = cpuCounterOf(rest[i+1:])
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
	if !finiteStats(stats) {
		// Extreme but individually-finite counters can still overflow a
		// rate division (huge count over a denormal cycle time); such a
		// dump is rejected rather than fed to the power models.
		f, _ := firstNonFinite(reflect.ValueOf(stats).Elem())
		return nil, fmt.Errorf("m5compat: non-finite statistic %s", f)
	}
	return stats, nil
}

// finiteStats reports whether every field of s is finite: x*0 is 0 for
// a finite x and NaN for NaN and ±Inf. It lists the fields by hand so
// that a clean vector is checked without reflection;
// TestFiniteStatsCoversEveryField pins the list to the struct.
func finiteStats(s *chip.Stats) bool {
	a := &s.CoreRun
	z := a.ICacheAccess*0 + a.BTBAccess*0 + a.PredAccess*0 +
		a.Decode*0 + a.Rename*0 +
		a.IQWakeup*0 + a.IQIssue*0 + a.IQWrite*0 + a.ROBAcc*0 +
		a.RFRead*0 + a.RFWrite*0 + a.FPRFRead*0 + a.FPRFWrite*0 +
		a.IntOp*0 + a.MulOp*0 + a.FPOp*0 + a.Bypass*0 +
		a.DCacheRead*0 + a.DCacheWrite*0 + a.CacheMiss*0 +
		a.LSQSearch*0 + a.LSQAccess*0 + a.ITLBAccess*0 + a.DTLBAccess*0 +
		a.PipelineDuty*0 +
		s.L2Reads*0 + s.L2Writes*0 + s.L3Reads*0 + s.L3Writes*0 +
		s.NoCFlits*0 + s.ClusterBusTransfers*0 + s.MCAccesses*0 +
		s.NIUBitsPerSec*0 + s.PCIeBitsPerSec*0 + s.FPOpsPerSec*0
	return z == 0
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
