package distrib

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"mcpat/internal/chip"
	"mcpat/internal/explore"
)

// validationSpaces mirror the explore package's pareto-vs-exhaustive
// validation set: the distributed contract is pinned on the same three
// constraint geometries the serial engines are.
var validationSpaces = []struct {
	name  string
	space explore.Space
	cons  explore.Constraints
}{
	{"wide", explore.Space{
		Cores:        []int{2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256},
		L2PerCoreKB:  []int{32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096},
		Fabrics:      []chip.InterconnectKind{chip.Mesh, chip.Ring, chip.Crossbar},
		ClusterSizes: []int{1, 2, 4},
	}, explore.Constraints{MaxAreaMM2: 600, MaxTDP: 400}},
	{"tight", explore.Space{
		Cores:        []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
		L2PerCoreKB:  []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
		Fabrics:      []chip.InterconnectKind{chip.Bus, chip.Ring, chip.Mesh},
		ClusterSizes: []int{1, 2, 4},
	}, explore.Constraints{MaxAreaMM2: 150, MaxTDP: 100}},
	{"flat", explore.Space{
		Cores:        []int{2, 4, 8, 16, 32, 64, 128},
		L2PerCoreKB:  []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384},
		Fabrics:      []chip.InterconnectKind{chip.Ring, chip.Crossbar},
		ClusterSizes: []int{1},
	}, explore.Constraints{MaxAreaMM2: 400, MaxTDP: 300}},
}

// randomPartition cuts [0, size) into contiguous ranges at random
// boundaries (at least two parts for size > 1).
func randomPartition(rnd *rand.Rand, size int) [][2]int {
	cuts := map[int]bool{0: true, size: true}
	n := 2 + rnd.Intn(6)
	for i := 0; i < n; i++ {
		cuts[1+rnd.Intn(size-1)] = true
	}
	var bounds []int
	for c := range cuts {
		bounds = append(bounds, c)
	}
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	var parts [][2]int
	for i := 0; i+1 < len(bounds); i++ {
		parts = append(parts, [2]int{bounds[i], bounds[i+1]})
	}
	return parts
}

func assertResultsEqual(t *testing.T, serial, merged *explore.Result) {
	t.Helper()
	if merged.Evaluated != serial.Evaluated || merged.Feasible != serial.Feasible ||
		merged.SpaceSize != serial.SpaceSize {
		t.Fatalf("counts differ: merged (eval=%d feas=%d size=%d), serial (eval=%d feas=%d size=%d)",
			merged.Evaluated, merged.Feasible, merged.SpaceSize,
			serial.Evaluated, serial.Feasible, serial.SpaceSize)
	}
	if (merged.Best == nil) != (serial.Best == nil) {
		t.Fatalf("best presence differs: merged %v, serial %v", merged.Best, serial.Best)
	}
	if merged.Best != nil && *merged.Best != *serial.Best {
		t.Fatalf("best differs:\nmerged %+v\nserial %+v", *merged.Best, *serial.Best)
	}
	if !reflect.DeepEqual(merged.Front, serial.Front) {
		t.Fatalf("front differs (%d vs %d members):\nmerged %+v\nserial %+v",
			len(merged.Front), len(serial.Front), merged.Front, serial.Front)
	}
	if !reflect.DeepEqual(merged.Candidates, serial.Candidates) {
		for i := range serial.Candidates {
			if i < len(merged.Candidates) && merged.Candidates[i] != serial.Candidates[i] {
				t.Fatalf("candidate ranking diverges at %d:\nmerged %+v\nserial %+v",
					i, merged.Candidates[i], serial.Candidates[i])
			}
		}
		t.Fatalf("candidate lists differ in length: merged %d, serial %d",
			len(merged.Candidates), len(serial.Candidates))
	}
}

// TestMergeIsPartitionAndOrderIndependent is the satellite property
// test: random contiguous shardings of every validation space, with the
// per-shard results merged in shuffled arrival order, reproduce the
// serial exhaustive sweep bit for bit — winners, ranking, and Pareto
// front alike.
func TestMergeIsPartitionAndOrderIndependent(t *testing.T) {
	for _, tc := range validationSpaces {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			serial, err := explore.SearchContext(context.Background(),
				explore.Params{}, tc.space, tc.cons, explore.MaxThroughput, nil)
			if err != nil {
				t.Fatal(err)
			}
			size := serial.SpaceSize

			for seed := int64(1); seed <= 3; seed++ {
				rnd := rand.New(rand.NewSource(seed))
				parts := randomPartition(rnd, size)
				shards := make([]*ShardResult, 0, len(parts))
				for _, p := range parts {
					res, err := EvalShard(context.Background(), ShardSpec{
						Params: explore.Params{}, Space: tc.space, Cons: tc.cons,
						Obj: explore.MaxThroughput, Start: p[0], End: p[1],
					}, nil)
					if err != nil {
						t.Fatalf("seed %d shard [%d,%d): %v", seed, p[0], p[1], err)
					}
					shards = append(shards, res)
				}
				rnd.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
				merged := mergeOutcomes(size, shards)
				assertResultsEqual(t, serial, merged)
			}
		})
	}
}

// TestWireCandidateRoundTrip pins the lossless wire encoding: every
// engine field survives ShardCandidate conversion exactly, fabric names
// included.
func TestWireCandidateRoundTrip(t *testing.T) {
	res, err := explore.SearchContext(context.Background(),
		explore.Params{}, validationSpaces[2].space, validationSpaces[2].cons,
		explore.MaxThroughput, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Candidates {
		c := res.Candidates[i]
		w := toWire(&c, i)
		back := fromWire(&w)
		if back != c {
			t.Fatalf("candidate %d did not round-trip:\n got %+v\nwant %+v", i, back, c)
		}
	}
}

// TestRunLocalOnlyMatchesSerial pins the degraded mode: a coordinated
// pool of the local worker alone (every remote unreachable) equals the
// serial engine.
func TestRunLocalOnlyMatchesSerial(t *testing.T) {
	tc := validationSpaces[2]
	serial, err := explore.SearchContext(context.Background(),
		explore.Params{}, tc.space, tc.cons, explore.MaxPerfPerWatt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	var lastDone, total int
	dist, err := run(context.Background(), explore.Params{}, tc.space, tc.cons,
		explore.MaxPerfPerWatt, &Options{
			Options: explore.Options{OnProgress: func(d, tot int) { lastDone, total = d, tot }},
			Metrics: m,
		}, true)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, serial, dist)
	if lastDone != serial.SpaceSize || total != serial.SpaceSize {
		t.Errorf("final progress %d/%d, want %d/%d", lastDone, total, serial.SpaceSize, serial.SpaceSize)
	}
	st := m.Snapshot()
	if st.ShardsDispatched == 0 {
		t.Error("no shards dispatched")
	}
	if st.ShardsRetried != 0 {
		t.Errorf("unexpected retries: %d", st.ShardsRetried)
	}
}

// frontUpdate is one OnFrontUpdate call.
type frontUpdate struct {
	front     []explore.Candidate
	evaluated int
}

// recordCallbacks sets o's progress and front callbacks to append to
// the returned slices.
func recordCallbacks(o *explore.Options) (progress *[][2]int, fronts *[]frontUpdate) {
	progress, fronts = new([][2]int), new([]frontUpdate)
	o.OnProgress = func(done, total int) { *progress = append(*progress, [2]int{done, total}) }
	o.OnFrontUpdate = func(front []explore.Candidate, evaluated int) {
		*fronts = append(*fronts, frontUpdate{front, evaluated})
	}
	return progress, fronts
}

// TestRouteNoRemotesIsSearchContext: without remotes, Run is the
// single-process engine, callbacks included, and dispatches nothing.
func TestRouteNoRemotesIsSearchContext(t *testing.T) {
	tc := validationSpaces[2]
	serialOpts := explore.Options{Workers: 2}
	serialProgress, serialFronts := recordCallbacks(&serialOpts)
	serial, err := explore.SearchContext(context.Background(),
		explore.Params{}, tc.space, tc.cons, explore.MaxThroughput, &serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	m := &Metrics{}
	opts := &Options{Options: explore.Options{Workers: 2}, Metrics: m}
	progress, fronts := recordCallbacks(&opts.Options)
	res, err := Run(context.Background(), explore.Params{}, tc.space, tc.cons, explore.MaxThroughput, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, serial, res)
	if !reflect.DeepEqual(*progress, *serialProgress) {
		t.Errorf("progress differs: %d calls, serial %d", len(*progress), len(*serialProgress))
	}
	if !reflect.DeepEqual(*fronts, *serialFronts) {
		t.Errorf("front updates differ:\n got %+v\nwant %+v", *fronts, *serialFronts)
	}
	if st := m.Snapshot(); !reflect.DeepEqual(st, Stats{}) {
		t.Errorf("a sweep without remotes recorded coordinator activity: %+v", st)
	}
}

// TestRouteUnshardableWithRemotesIsSerial: a pareto search, or a sweep
// the caller already restricted to a shard, runs single-process even
// with remotes configured, and no remote is contacted.
func TestRouteUnshardableWithRemotesIsSerial(t *testing.T) {
	tc := validationSpaces[2]
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("remote contacted: %s %s", r.Method, r.URL.Path)
		http.Error(w, "unexpected", http.StatusInternalServerError)
	}))
	t.Cleanup(remote.Close)

	for _, c := range []struct {
		name string
		opts explore.Options
	}{
		{"pareto", explore.Options{Search: explore.SearchPareto, Budget: 24, Seed: 7}},
		{"shard", explore.Options{Shard: &explore.ShardRange{Start: 16, End: 40}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			serialOpts := c.opts
			serialProgress, serialFronts := recordCallbacks(&serialOpts)
			serial, err := explore.SearchContext(context.Background(),
				explore.Params{}, tc.space, tc.cons, explore.MaxThroughput, &serialOpts)
			if err != nil {
				t.Fatal(err)
			}

			m := &Metrics{}
			opts := &Options{Options: c.opts, Remotes: []string{remote.URL}, Metrics: m}
			progress, fronts := recordCallbacks(&opts.Options)
			res, err := Run(context.Background(), explore.Params{}, tc.space, tc.cons, explore.MaxThroughput, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Search != serial.Search {
				t.Fatalf("search kind %v, want %v", res.Search, serial.Search)
			}
			assertResultsEqual(t, serial, res)
			if !reflect.DeepEqual(*progress, *serialProgress) || !reflect.DeepEqual(*fronts, *serialFronts) {
				t.Error("progress or front updates differ from the serial search")
			}
			if st := m.Snapshot(); st.ShardsDispatched != 0 {
				t.Errorf("%d shard(s) dispatched, want 0", st.ShardsDispatched)
			}
		})
	}
}
