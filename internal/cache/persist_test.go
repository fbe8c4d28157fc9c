package cache

// Component-tier disk round-trip: a shared cache hydrated from the
// persistent store must be bit-identical to one synthesized cold,
// including its normalized config and reattached technology node.

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"mcpat/internal/array"
	"mcpat/internal/component"
	"mcpat/internal/persist"
	"mcpat/internal/persist/faultfs"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

func resetTiers() {
	component.ResetCache()
	array.ResetCache()
}

func installStore(t *testing.T, opts persist.Options) *persist.Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := persist.Open(opts)
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	prev := persist.SetDefault(s)
	resetTiers()
	t.Cleanup(func() {
		persist.SetDefault(prev)
		s.Close()
		resetTiers()
	})
	return s
}

func persistGrid() []Config {
	dir := l2cfg()
	dir.Name = "l2d"
	dir.Directory = true
	dir.Sharers = 16
	small := l2cfg()
	small.Name = "l2s"
	small.Bytes = 256 * 1024
	small.Banks = 1
	return []Config{l2cfg(), dir, small}
}

func TestCacheCodecRoundTripsBitIdentical(t *testing.T) {
	for _, cfg := range persistGrid() {
		cold, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		norm := cfg
		if err := norm.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		key := norm
		key.Tech = nil
		pc := persistCodec(key, norm.Tech)
		data, err := pc.Encode(cold)
		if err != nil {
			t.Fatalf("%s encode: %v", cfg.Name, err)
		}
		v, err := pc.Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(cold, v.(*Cache)) {
			t.Errorf("%s: decoded cache differs from original", cfg.Name)
		}
	}
}

// TestCacheDiskKeyIsCanonical pins the disk key to the explicit binary
// encoding. An earlier revision gob-encoded the synthKey, and gob
// embeds wire type IDs allocated process-globally in first-use order —
// the same config produced different key bytes in different processes
// (whichever types that process happened to gob first), so every
// cross-process warm start silently missed and republished.
func TestCacheDiskKeyIsCanonical(t *testing.T) {
	norm := l2cfg()
	if err := norm.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	cfg := norm
	cfg.Tech, cfg.Name = nil, ""
	pc := persistCodec(cfg, norm.Tech)
	k1 := pc.Key()
	k2 := pc.Key()
	if !bytes.Equal(k1, k2) {
		t.Fatal("key encoding is not deterministic")
	}
	if len(k1) != 15*8 {
		t.Fatalf("key length %d, want fixed 15*8 bytes (one word per field)", len(k1))
	}
	for _, marker := range []string{"synthKey", "Config", "TechFP"} {
		if bytes.Contains(k1, []byte(marker)) {
			t.Fatalf("key embeds gob type descriptor %q; must stay an explicit field encoding", marker)
		}
	}
	// Every distinguishing field must reach the encoding.
	mutate := []func(*synthKey){
		func(k *synthKey) { k.TechFP++ },
		func(k *synthKey) { k.Cfg.Bytes *= 2 },
		func(k *synthKey) { k.Cfg.Assoc *= 2 },
		func(k *synthKey) { k.Cfg.Directory = !k.Cfg.Directory; k.Cfg.Sharers = 8 },
		func(k *synthKey) { k.Cfg.TargetHz *= 2 },
		func(k *synthKey) { k.Cfg.EDRAM = !k.Cfg.EDRAM },
	}
	key := synthKey{TechFP: norm.Tech.Fingerprint(), Cfg: cfg}
	if !bytes.Equal(k1, key.encodeKey()) {
		t.Fatal("codec key differs from the synthKey encoding")
	}
	for i, m := range mutate {
		k := key
		m(&k)
		if bytes.Equal(k1, k.encodeKey()) {
			t.Errorf("mutation %d does not change the disk key", i)
		}
	}
}

// TestCacheDiskKeyGolden pins the on-disk identity of one shared-cache
// synthesis: the namespace and the exact key bytes Synthesize publishes
// under, one 8-byte little-endian word per synthKey field, technology
// fingerprint first. A cache directory filled by an earlier build is
// only served while these bytes stay fixed, so any change to them needs
// a namespace bump (cacheDiskNS) in the same change; otherwise every
// existing entry is silently stranded.
func TestCacheDiskKeyGolden(t *testing.T) {
	const golden = "" +
		"24c8a909a7357b3e000000000000000001000000000000000000000000000000" +
		"0000000000000000000040000000000040000000000000000800000000000000" +
		"1000000000000000010000000000000010000000000000001000000000000000" +
		"000000205fa0e24101000000000000001000000000000000"
	cfg := Config{Name: "L2", Tech: techtest.Node(22), Dev: tech.HP, TargetHz: 2.5e9,
		Bytes: 4 << 20, BlockBytes: 64, Assoc: 8, Banks: 16, Directory: true, Sharers: 16}
	store := installStore(t, persist.Options{})
	if _, err := Synthesize(cfg); err != nil {
		t.Fatal(err)
	}
	key, _ := hex.DecodeString(golden)
	if _, ok := store.Get("subsys.cache.v2", key); !ok {
		t.Fatal("Synthesize published no subsys.cache.v2 entry under the golden key")
	}
}

func TestCacheDiskHydrationBitIdentical(t *testing.T) {
	grid := persistGrid()
	// Ground truth without any caches.
	prevC := component.SetCacheEnabled(false)
	prevA := array.SetCacheEnabled(false)
	ref := make([]*Cache, len(grid))
	for i, cfg := range grid {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("%s cold: %v", cfg.Name, err)
		}
		ref[i] = c
	}
	component.SetCacheEnabled(prevC)
	array.SetCacheEnabled(prevA)

	store := installStore(t, persist.Options{})
	for _, cfg := range grid {
		if _, err := Synthesize(cfg); err != nil {
			t.Fatalf("%s populate: %v", cfg.Name, err)
		}
	}
	base := store.Stats()
	if base.Entries == 0 {
		t.Fatal("population published no disk entries")
	}

	// Fresh process simulation: drop memory tiers, hydrate from disk.
	resetTiers()
	for i, cfg := range grid {
		c, err := Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s hydrate: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(c, ref[i]) {
			t.Errorf("%s: disk-hydrated cache differs from cold synthesis", cfg.Name)
		}
		if c.cfg.Tech == nil || c.cfg.Tech.Fingerprint() != ref[i].cfg.Tech.Fingerprint() {
			t.Errorf("%s: hydrated cache lost its technology node", cfg.Name)
		}
	}
	d := store.Stats().Delta(base)
	if d.Hits == 0 {
		t.Fatal("hydration pass never hit the disk tier")
	}
	// Subsystem hits short-circuit before the array tier: the whole-cache
	// entries must satisfy the solve without re-running array synthesis.
	if ast := array.Stats(); ast.Misses != 0 {
		t.Errorf("subsystem hydration re-synthesized %d arrays", ast.Misses)
	}
}

func TestCacheDiskCorruptionFallsBack(t *testing.T) {
	grid := persistGrid()
	store := installStore(t, persist.Options{})
	ref := make([]*Cache, len(grid))
	for i, cfg := range grid {
		c, err := Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s populate: %v", cfg.Name, err)
		}
		ref[i] = c
	}
	paths, err := faultfs.Entries(store.Dir())
	if err != nil || len(paths) == 0 {
		t.Fatalf("no entries published (%v)", err)
	}
	for _, p := range paths {
		if err := faultfs.Scribble(p); err != nil {
			t.Fatal(err)
		}
	}
	resetTiers()
	for i, cfg := range grid {
		c, err := Synthesize(cfg)
		if err != nil {
			t.Fatalf("%s with corrupt disk: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(c, ref[i]) {
			t.Errorf("%s: fallback result differs from reference", cfg.Name)
		}
	}
	if store.Stats().Corrupt == 0 {
		t.Fatal("corrupted entries were not quarantined")
	}
}
