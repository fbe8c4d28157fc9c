package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcpat/internal/array"
	"mcpat/internal/component"
	"mcpat/internal/explore"
)

// digest folds model outputs into one FNV-1a hash over their exact bits.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) u(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}
func (d *digest) f(v float64) { d.u(math.Float64bits(v)) }
func (d *digest) i(v int)     { d.u(uint64(int64(v))) }
func (d *digest) b(v bool) {
	if v {
		d.u(1)
	} else {
		d.u(0)
	}
}
func (d *digest) s(v string) {
	d.i(len(v))
	for i := 0; i < len(v); i++ {
		d.h ^= uint64(v[i])
		d.h *= 1099511628211
	}
}
func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h) }

// expectedDigests holds, per digest family and seed, the digest the
// workload's outputs must reproduce. Regenerate it (only when a change is
// meant to alter model outputs) with:
//
//	bash perfbench/run.sh --record-digests 200
//
//go:embed digests.json
var digestsJSON []byte

type digestTable map[string]map[string]string // family -> seed -> hex

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// checkDigest compares a run's digest with the stored one for its seed.
// Seeds outside the table are covered only by the workload's reference
// cross-checks, which every run performs anyway.
func checkDigest(family string, seed int64, got string) bool {
	t, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	want, ok := t[family][strconv.FormatInt(seed, 10)]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no stored %s digest for seed %d; reference cross-checks only\n", family, seed)
		return true
	}
	if want != got {
		fmt.Fprintf(os.Stderr, "perfbench: %s digest mismatch for seed %d: got %s, stored %s\n", family, seed, got, want)
		return false
	}
	return true
}

// recordDigests recomputes the expected digests of seeds [0, n).
func recordDigests(ctx context.Context, n int, path string) error {
	t := digestTable{"dse": {}, "trace": {}, "serve": {}}
	for seed := int64(0); seed < int64(n); seed++ {
		array.ResetCache()
		component.ResetCache()
		res, err := explore.SearchContext(ctx, dseParams(), dseSpace(seed), dseCons, explore.MaxThroughput, &explore.Options{Workers: 2})
		if err != nil {
			return err
		}
		t["dse"][strconv.FormatInt(seed, 10)] = dseDigest(res)
		td, err := traceReferenceDigest(ctx, seed)
		if err != nil {
			return err
		}
		t["trace"][strconv.FormatInt(seed, 10)] = td
		sd, err := serveReferenceDigest(seed)
		if err != nil {
			return err
		}
		t["serve"][strconv.FormatInt(seed, 10)] = sd
		fmt.Fprintf(os.Stderr, "seed %d: dse %s trace %s serve %s\n", seed, t["dse"][strconv.FormatInt(seed, 10)], td, sd)
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sourceDigest identifies the code under test by hashing every Go source
// and go.mod of the checkout (build outputs excluded).
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-fnv64:%016x", h.Sum64())
}
