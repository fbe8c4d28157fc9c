package m5compat

import (
	"fmt"

	"mcpat/internal/chip"
)

// ToChipStatsAt converts the i-th dump of a multi-dump stats stream into
// the chip statistics vector — the per-interval entry point of the trace
// engine, which walks every dump in order rather than keeping only the
// last one.
func ToChipStatsAt(dumps []Dump, i int, clockHz float64, numCores int) (*chip.Stats, error) {
	if i < 0 || i >= len(dumps) {
		return nil, fmt.Errorf("m5compat: dump index %d out of range [0,%d)", i, len(dumps))
	}
	return ToChipStats(dumps[i], clockHz, numCores)
}

// SimSeconds reports the simulated wall-clock duration of one dump:
// sim_seconds/simSeconds when the dump carries it, otherwise the average
// per-core cycle count over the clock. gem5 resets these counters at
// every dump, so the value is the interval duration, not a cumulative
// time.
func SimSeconds(d Dump, clockHz float64) (float64, error) {
	if secs, ok := d.first("sim_seconds", "simSeconds"); ok && secs > 0 {
		return secs, nil
	}
	if clockHz <= 0 {
		return 0, fmt.Errorf("m5compat: clock required to derive interval duration from cycles")
	}
	var cpu cpuTable
	cpu.fold(d)
	if cycles, n := cpu.get(ctrNumCycles); n > 0 {
		return cycles / float64(n) / clockHz, nil
	}
	return 0, fmt.Errorf("m5compat: no duration (sim_seconds or numCycles) in dump")
}
