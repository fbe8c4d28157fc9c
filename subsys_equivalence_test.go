package mcpat_test

// Bit-identity contract for the subsystem synthesis cache (the component
// layer above the array cache): chips assembled from shared memoized
// subsystems — cores, caches, fabrics, memory controllers, clock
// networks — must report byte-for-byte what a fully uncached build
// reports, both when the cache is filling and when every subsystem is a
// hit. The delta test pins the property that motivates the layer: a
// configuration change confined to the NoC must reuse the synthesized
// core and shared cache outright. The concurrent variant is the -race
// proof for single-flight subsystem sharing under the explore-engine
// access pattern.

import (
	"reflect"
	"sync"
	"testing"

	"mcpat"
)

func TestSubsysCachedReportsBitIdentical(t *testing.T) {
	ref := uncachedReports(t)
	mcpat.ResetSubsysSynthCache()

	for pass, label := range []string{"cold (cache-filling)", "warm (all hits)"} {
		for _, target := range mcpat.ValidationTargets() {
			res, err := mcpat.Validate(target)
			if err != nil {
				t.Fatalf("%s pass %d: %v", target.Ref.Name, pass, err)
			}
			if !reflect.DeepEqual(res.Report, ref[target.Ref.Name]) {
				t.Errorf("%s: %s subsystem-cached report differs from uncached reference",
					target.Ref.Name, label)
			}
		}
	}
	cs := mcpat.ReadEngineCounters().Subsys
	if cs.Total().Hits == 0 {
		t.Error("warm pass produced no subsystem cache hits; cache not exercised")
	}
	for _, i := range []int{mcpat.SubsysKindCore, mcpat.SubsysKindCache} {
		if k := cs.Kinds[i]; k.Hits == 0 {
			t.Errorf("no %s reuse across the warm pass (stats %+v)", mcpat.SubsysKindName(i), k)
		}
	}
}

func TestSubsysCachedReportsBitIdenticalConcurrent(t *testing.T) {
	ref := uncachedReports(t)
	mcpat.ResetSubsysSynthCache()

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, target := range mcpat.ValidationTargets() {
				res, err := mcpat.Validate(target)
				if err != nil {
					errs <- target.Ref.Name + ": " + err.Error()
					return
				}
				if !reflect.DeepEqual(res.Report, ref[target.Ref.Name]) {
					errs <- target.Ref.Name + ": concurrent subsystem-cached report differs from uncached reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// noCVariant returns a 16-core chip description varying only in fabric.
func noCVariant(kind mcpat.InterconnectKind) mcpat.Config {
	cfg := mcpat.Config{
		Name: "delta", NM: 22, ClockHz: 2e9, NumCores: 16,
		Core: mcpat.CoreConfig{Threads: 2, IntALUs: 2, FPUs: 1, MulDivs: 1,
			ICache: mcpat.CacheParams{Bytes: 32 << 10}, DCache: mcpat.CacheParams{Bytes: 32 << 10}},
		L2:  &mcpat.CacheConfig{Name: "L2", Bytes: 4 << 20, Banks: 4},
		NoC: mcpat.NoCSpec{Kind: kind, FlitBits: 128},
	}
	if kind == mcpat.Mesh {
		cfg.NoC.MeshX, cfg.NoC.MeshY = 4, 4
	}
	return cfg
}

// TestSubsysDeltaReuse pins delta re-evaluation: across NoC-only
// variants, the core and the shared L2 synthesize exactly once; every
// later variant reuses them from the subsystem cache.
func TestSubsysDeltaReuse(t *testing.T) {
	mcpat.ResetSubsysSynthCache()
	kinds := []mcpat.InterconnectKind{mcpat.Mesh, mcpat.Ring, mcpat.Bus, mcpat.Crossbar}
	for _, k := range kinds {
		if _, err := mcpat.New(noCVariant(k)); err != nil {
			t.Fatalf("fabric %v: %v", k, err)
		}
	}
	cs := mcpat.ReadEngineCounters().Subsys
	if got := cs.Kinds[mcpat.SubsysKindCore]; got.Misses != 1 || got.Hits != uint64(len(kinds)-1) {
		t.Errorf("core reuse across NoC-only sweep: %+v, want 1 miss and %d hits", got, len(kinds)-1)
	}
	if got := cs.Kinds[mcpat.SubsysKindCache]; got.Misses != 1 || got.Hits != uint64(len(kinds)-1) {
		t.Errorf("L2 reuse across NoC-only sweep: %+v, want 1 miss and %d hits", got, len(kinds)-1)
	}
	if got := cs.Kinds[mcpat.SubsysKindFabric]; got.Misses == 0 {
		t.Errorf("fabric should re-synthesize across fabric variants: %+v", got)
	}
}
