package array

import (
	"testing"

	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// keyOf validates a copy of cfg and returns its canonical cache key,
// mirroring exactly what New does before consulting the cache.
func keyOf(t *testing.T, cfg Config) Key {
	t.Helper()
	_, wordBits, err := cfg.validate()
	if err != nil {
		t.Fatalf("validate %s: %v", cfg.Name, err)
	}
	return canonicalKey(&cfg, wordBits)
}

// TestKeyNormalizationDefaults pins rule one: zero-valued optional fields
// key identically to their explicit defaults, because validate()'s
// defaulting runs before the key is built.
func TestKeyNormalizationDefaults(t *testing.T) {
	base := Config{Name: "a", Tech: techtest.Node(45), Periph: tech.HP,
		Bytes: 64 * 1024, Assoc: 4}

	explicit := base
	explicit.Banks = 1       // validate default
	explicit.RWPorts = 1     // validate default when no ports given
	explicit.BlockBits = 512 // validate default for byte-sized arrays
	if keyOf(t, base) != keyOf(t, explicit) {
		t.Error("zero-valued Banks/RWPorts/BlockBits should key as their defaults")
	}

	differentBlock := base
	differentBlock.BlockBits = 256
	if keyOf(t, base) == keyOf(t, differentBlock) {
		t.Error("a non-default BlockBits must key differently")
	}
}

// TestKeyNormalizationName pins rule two: Name never affects the key.
func TestKeyNormalizationName(t *testing.T) {
	a := Config{Name: "dcache", Tech: techtest.Node(45), Periph: tech.HP,
		Bytes: 32 * 1024, Assoc: 4, RWPorts: 2}
	b := a
	b.Name = "completely different"
	if keyOf(t, a) != keyOf(t, b) {
		t.Error("Name must be excluded from the key")
	}
}

// TestKeyNormalizationSequential pins rule three: the tri-state
// Sequential option resolves to the concrete policy the synthesis uses,
// so nil and an explicit default-matching value are equal — and an
// explicit non-default value is not.
func TestKeyNormalizationSequential(t *testing.T) {
	small := Config{Name: "l1", Tech: techtest.Node(45), Periph: tech.HP,
		Bytes: 32 * 1024, Assoc: 4, RWPorts: 1} // <=64KB: parallel by default
	f, tr := false, true

	explicitParallel := small
	explicitParallel.Sequential = &f
	if keyOf(t, small) != keyOf(t, explicitParallel) {
		t.Error("nil Sequential should equal explicit default (parallel) for a small cache")
	}
	explicitSequential := small
	explicitSequential.Sequential = &tr
	if keyOf(t, small) == keyOf(t, explicitSequential) {
		t.Error("overriding the way-access policy must change the key")
	}

	big := small
	big.Bytes = 512 * 1024 // >64KB: sequential by default
	explicitSeqBig := big
	explicitSeqBig.Sequential = &tr
	if keyOf(t, big) != keyOf(t, explicitSeqBig) {
		t.Error("nil Sequential should equal explicit default (sequential) for a large cache")
	}
}

// TestKeyNormalizationUnreadFields pins rule four: fields the dispatched
// synthesis path never reads are forced to fixed values, so semantically
// equal configs with stray leftovers share an entry.
func TestKeyNormalizationUnreadFields(t *testing.T) {
	n := techtest.Node(45)

	// CAM path ignores the optimizer knobs, banking, and associativity,
	// and FullyAssoc / CellKind=CAM dispatch identically.
	cam := Config{Name: "tlb", Tech: n, Periph: tech.HP,
		Entries: 64, EntryBits: 52, FullyAssoc: true}
	stray := cam
	stray.Obj = OptArea
	stray.TargetCycle = 1e-9
	stray.Banks = 4
	stray.CellKind = CAM
	stray.FullyAssoc = false
	if keyOf(t, cam) != keyOf(t, stray) {
		t.Error("CAM path: optimizer knobs/banks/dispatch spelling must not affect the key")
	}
	camDefaultSearch := cam
	camDefaultSearch.SearchPorts = 1 // newCAM's own default
	if keyOf(t, cam) != keyOf(t, camDefaultSearch) {
		t.Error("CAM path: SearchPorts 0 should key as the default 1")
	}

	// DFF path ignores tags, banking, search ports, optimizer knobs.
	dff := Config{Name: "buf", Tech: n, Periph: tech.HP,
		Entries: 16, EntryBits: 128, CellKind: DFF, RdPorts: 2, WrPorts: 1}
	strayDFF := dff
	strayDFF.TagBits = 30
	strayDFF.Banks = 2
	strayDFF.Obj = OptDelay
	if keyOf(t, dff) != keyOf(t, strayDFF) {
		t.Error("DFF path: TagBits/Banks/Obj must not affect the key")
	}

	// Plain RAM ignores TagBits and SearchPorts.
	ram := Config{Name: "ram", Tech: n, Periph: tech.HP, Bytes: 8192, RWPorts: 1}
	strayRAM := ram
	strayRAM.TagBits = 25
	if keyOf(t, ram) != keyOf(t, strayRAM) {
		t.Error("RAM path: TagBits must not affect the key")
	}
}

// TestKeyDistinguishesRealDifferences is the other direction of the
// contract: configs the synthesis can tell apart must key apart.
func TestKeyDistinguishesRealDifferences(t *testing.T) {
	n := techtest.Node(45)
	base := Config{Name: "x", Tech: n, Periph: tech.HP,
		Bytes: 32 * 1024, Assoc: 4, RWPorts: 1}

	vary := []func(*Config){
		func(c *Config) { c.Bytes *= 2 },
		func(c *Config) { c.Assoc = 8 },
		func(c *Config) { c.Banks = 4 },
		func(c *Config) { c.RdPorts = 2 },
		func(c *Config) { c.Cell = tech.LSTP },
		func(c *Config) { c.LongChannel = true },
		func(c *Config) { c.Obj = OptArea },
		func(c *Config) { c.TargetCycle = 2e-9 },
		func(c *Config) { c.CellKind = EDRAM },
	}
	baseKey := keyOf(t, base)
	for i, mut := range vary {
		c := base
		mut(&c)
		if keyOf(t, c) == baseKey {
			t.Errorf("variation %d should produce a distinct key", i)
		}
	}
}

// TestKeyTechFingerprint: the key embeds the node's value fingerprint, so
// equal-valued fresh nodes share keys and retuned nodes do not.
func TestKeyTechFingerprint(t *testing.T) {
	cfg := Config{Name: "x", Tech: techtest.Node(32), Periph: tech.HP,
		Bytes: 8192, RWPorts: 1}
	k1 := keyOf(t, cfg)

	cfg.Tech = techtest.Node(32)
	if keyOf(t, cfg) != k1 {
		t.Error("fresh node with equal values should share the key")
	}

	cfg.Tech = techtest.Node(32)
	cfg.Tech.OverrideVdd(tech.HP, 0.85)
	if keyOf(t, cfg) == k1 {
		t.Error("retuned Vdd must change the key")
	}

	cfg.Tech = techtest.Node(22)
	if keyOf(t, cfg) == k1 {
		t.Error("a different node must change the key")
	}
}
