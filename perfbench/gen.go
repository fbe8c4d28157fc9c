package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mcpat/internal/chip"
	"mcpat/internal/config"
	"mcpat/internal/core"
	"mcpat/internal/explore"
	"mcpat/internal/m5compat"
	"mcpat/internal/perfsim"
	"mcpat/internal/presets"
)

// rngFor derives an independent deterministic stream for one generator
// from the run seed, so adding a generator never shifts another's inputs.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// DSE inputs. Each axis value comes from its own slot of two nearby
// choices, so every seed's space costs about the same to sweep: the seed
// changes which structures are synthesized, not how much work a sweep is.
// Core counts stay multiples of 4 so every cluster size divides them.
var (
	dseCoreSlots = [][2]int{{8, 12}, {16, 20}, {24, 28}, {32, 36}, {40, 44}, {48, 52}, {56, 60}}
	dseL2Slots   = [][2]int{{128, 160}, {192, 224}, {256, 288}, {320, 352}, {384, 416}, {448, 480}}
)

func pickSlots(r *rand.Rand, slots [][2]int) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s[r.Intn(2)]
	}
	return out
}

// dseSpace is the seeded ~256-point space: 7 core counts x 6 L2 sizes x
// {mesh with cluster 1/2/4, ring, bus, crossbar} = 252 points.
func dseSpace(seed int64) explore.Space {
	r := rngFor(seed, "dse.space")
	return explore.Space{
		Cores:        pickSlots(r, dseCoreSlots),
		L2PerCoreKB:  pickSlots(r, dseL2Slots),
		Fabrics:      []chip.InterconnectKind{chip.Mesh, chip.Ring, chip.Bus, chip.Crossbar},
		ClusterSizes: []int{1, 2, 4},
	}
}

// dseParams fixes everything the space does not sweep, spelled out so the
// benchmark-local replay uses exactly the engine's values.
func dseParams() explore.Params {
	return explore.Params{NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 200e9, Workloads: perfsim.SPLASH2Like()}
}

// dseCons is the area/TDP budget; it rejects part of every space.
var dseCons = explore.Constraints{MaxAreaMM2: 250, MaxTDP: 120}

// Trace inputs: seeded multi-dump gem5 stats streams.
const (
	traceStreams    = 8
	traceDumps      = 48
	exampleConfig   = "examples/gem5-trace/config.json"
	exampleStats    = "examples/gem5-trace/stats.txt"
	dumpSeconds     = 0.001
	statsBeginDelim = "---------- Begin Simulation Statistics ----------"
	statsEndDelim   = "---------- End Simulation Statistics   ----------"
)

// phase shapes one run of dumps: which example dump it scales and by how
// much. Hot phases push the governor into throttling, cool ones let the
// die recover.
type phase struct {
	base       int     // example dump index (0 integer-heavy, 1 FP-heavy)
	lo, hi     float64 // activity scale range
	minN, maxN int     // phase length in dumps
}

var (
	hotPhase  = phase{base: 0, lo: 1.05, hi: 1.3, minN: 4, maxN: 9}
	fpPhase   = phase{base: 1, lo: 0.9, hi: 1.15, minN: 3, maxN: 7}
	idlePhase = phase{base: 0, lo: 0.03, hi: 0.12, minN: 3, maxN: 7}
)

// unscaled names keep the example's values: they set interval length and
// clock, not activity.
func unscaled(name string) bool {
	return name == "sim_seconds" || name == "sim_ticks" || strings.HasSuffix(name, ".numCycles")
}

// traceStreamSet generates the run's stats streams from the example's
// first two dumps: alternating hot and cool phases with seeded lengths,
// per-phase scale and +-4% per-counter jitter.
func traceStreamSet(seed int64, example []m5compat.Dump) ([][]byte, error) {
	if len(example) < 2 {
		return nil, fmt.Errorf("example stats need at least 2 dumps, have %d", len(example))
	}
	names := make([]string, 0, len(example[0]))
	for n := range example[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([][]byte, traceStreams)
	for s := range out {
		r := rngFor(seed, fmt.Sprintf("trace.stream.%d", s))
		var b bytes.Buffer
		hot := r.Intn(2) == 0
		for n := 0; n < traceDumps; {
			ph := hotPhase
			if !hot {
				ph = fpPhase
				if r.Intn(2) == 0 {
					ph = idlePhase
				}
			}
			hot = !hot
			scale := ph.lo + (ph.hi-ph.lo)*r.Float64()
			for k := ph.minN + r.Intn(ph.maxN-ph.minN+1); k > 0 && n < traceDumps; k-- {
				writeDump(&b, names, example[ph.base], scale, r)
				n++
			}
		}
		out[s] = b.Bytes()
	}
	return out, nil
}

func writeDump(b *bytes.Buffer, names []string, base m5compat.Dump, scale float64, r *rand.Rand) {
	b.WriteString("\n" + statsBeginDelim + "\n")
	for _, n := range names {
		v, ok := base[n]
		if !ok {
			continue
		}
		var s string
		switch {
		case n == "sim_seconds":
			s = fmt.Sprintf("%.6f", dumpSeconds)
		case unscaled(n):
			s = fmt.Sprintf("%.0f", v)
		default:
			s = fmt.Sprintf("%.0f", math.Round(v*scale*(0.96+0.08*r.Float64())))
		}
		fmt.Fprintf(b, "%-46s %16s                       # %s\n", n, s, "benchmark-generated statistic")
	}
	b.WriteString(statsEndDelim + "\n")
}

// Serve inputs: a pool of /v1/evaluate bodies across the three decode
// paths, plus an unbounded sequence of novel configs. The window sends
// novel configs at a fixed rate (servewl.go), about 2% of its requests;
// the traced pass, which has no clock to follow, draws them at that share.
// At about 2% the request p99 falls mid-way through the novel requests'
// latencies.
const (
	novelFrac    = 0.02 // share of traced requests that carry a never-seen config
	novelDigestN = 4    // novel configs folded into the expected digest
	serveNovelHz = 1    // L2 clock-target step between consecutive novel configs
)

// request is one prepared POST /v1/evaluate body.
type request struct {
	kind   string // "preset", "json", "xml" or "novel"
	body   []byte
	preset string // the preset the body derives from; labels errors
}

func (q *request) contentType() string {
	if q.kind == "xml" {
		return "application/xml"
	}
	return "application/json"
}

// servePool builds the seeded pool: for every bundled preset, its name,
// its config as native JSON, and its config as McPAT XML. The JSON and XML
// variants carry a seeded clock offset and seeded runtime statistics, so
// each seed synthesizes different chips.
func servePool(seed int64) ([]request, error) {
	r := rngFor(seed, "serve.pool")
	var pool []request
	for _, p := range presets.All() {
		pool = append(pool, request{kind: "preset", preset: p.Name,
			body: []byte(fmt.Sprintf(`{"preset":%q}`, p.Name))})
		for _, kind := range []string{"json", "xml"} {
			cfg := p.Config
			cfg.ClockHz *= 1 + 0.01*float64(r.Intn(11)-5)
			stats := runtimeStats(cfg, 0.3+0.5*r.Float64())
			body, err := encodeRequest(kind, cfg, stats)
			if err != nil {
				return nil, fmt.Errorf("pool %s/%s: %w", p.Name, kind, err)
			}
			pool = append(pool, request{kind: kind, preset: p.Name, body: body})
		}
	}
	return pool, nil
}

// novelRequest is the n-th never-seen config of the run: the atom-class
// preset with its L2 retimed for a clock target no other request uses, so
// the server pays a cold cache synthesis (and the fabric and clock network
// that size from it) while the cores stay memo hits. Retiming by a few
// hertz keeps every novel config equally expensive however many a run
// sends, and keeps the memo growth per novel config small. One base
// preset keeps the novel latencies, and so the p99 they set, unimodal.
func novelRequest(n int) (request, error) {
	const base = "atom-class"
	p, err := presets.ByName(base)
	if err != nil {
		return request{}, err
	}
	cfg := p.Config
	l2 := *cfg.L2
	l2.TargetHz = cfg.ClockHz - float64(n+1)*serveNovelHz
	cfg.L2 = &l2
	body, err := encodeRequest("json", cfg, runtimeStats(cfg, 0.5))
	if err != nil {
		return request{}, err
	}
	return request{kind: "novel", preset: base, body: body}, nil
}

// runtimeStats is a runtime activity vector at duty u of the core's peak.
func runtimeStats(cfg chip.Config, u float64) *chip.Stats {
	return &chip.Stats{
		CoreRun:    core.PeakActivity(cfg.Core).Scale(u),
		L2Reads:    u * 0.05 * cfg.ClockHz,
		L2Writes:   u * 0.02 * cfg.ClockHz,
		NoCFlits:   u * 0.04 * cfg.ClockHz,
		MCAccesses: u * 0.01 * cfg.ClockHz,
	}
}

func encodeRequest(kind string, cfg chip.Config, stats *chip.Stats) ([]byte, error) {
	if kind == "xml" {
		root := config.FromChipConfig(cfg)
		config.FromStats(root, stats)
		var b bytes.Buffer
		if err := root.Write(&b); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	return json.Marshal(map[string]any{"config": cfg, "stats": stats})
}

// clientMix is one client's seeded request sequence: seeded pool items
// and novel configs. Client c takes novel indices c, c+clients, ... so no
// two requests of a run share a novel config.
type clientMix struct {
	r        *rand.Rand
	pool     int
	next     int // next novel index
	stride   int
	novelOff int
}

func newClientMix(seed int64, client, clients, poolSize, novelOff int) *clientMix {
	return &clientMix{r: rngFor(seed, fmt.Sprintf("serve.client.%d", client)), pool: poolSize,
		next: client, stride: clients, novelOff: novelOff}
}

// draw returns either a pool index (novel == -1), or, novelFrac of the
// time, a novel index (poolIdx == -1).
func (m *clientMix) draw() (poolIdx, novel int) {
	if m.r.Float64() < novelFrac {
		return -1, m.nextNovel()
	}
	return m.poolIndex(), -1
}

func (m *clientMix) poolIndex() int { return m.r.Intn(m.pool) }

func (m *clientMix) nextNovel() int {
	n := m.next
	m.next += m.stride
	return m.novelOff + n
}
