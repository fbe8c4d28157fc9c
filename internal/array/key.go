package array

import "mcpat/internal/tech"

// Canonical cache keys for array synthesis.
//
// Two Configs that the synthesis engine cannot tell apart must map to the
// same Key, and two Configs that can produce different Results must map
// to different Keys. The normalization rules below encode exactly what
// each synthesis path reads:
//
//   - Name is excluded: it only decorates error messages and has no
//     effect on the synthesized numbers.
//   - The technology node enters by value fingerprint, not pointer
//     identity: every chip build materializes its own *tech.Node, and a
//     DSE sweep must share solves across candidates that use equal nodes.
//   - validate()'s defaulting runs first, so zero-valued optional fields
//     (Banks, ports, BlockBits) key identically to their explicit
//     defaults.
//   - Fields the selected synthesis path never reads are forced to fixed
//     values (see normalize), so e.g. a CAM with a stray Obj setting or a
//     plain RAM with a leftover TagBits keys the same as its clean twin.
//   - The tri-state Sequential option is resolved to the concrete bool
//     the cache path would use, so nil and an explicit default-matching
//     value are equal.
type Key struct {
	TechFP      uint64
	Periph      tech.DeviceType
	Cell        tech.DeviceType
	LongChannel bool

	Bytes, Entries, EntryBits int
	WordBits                  int // effective output width from validate()

	Assoc   int
	TagBits int
	Banks   int

	RWPorts, RdPorts, WrPorts, SearchPorts int

	CellKind    CellType
	TargetCycle float64
	Obj         Objective
	Sequential  bool
}

// canonicalKey builds the cache key for a validated config. cfg must
// already have been passed through validate() (defaults applied);
// wordBits is validate()'s effective output width.
func canonicalKey(cfg *Config, wordBits int) Key {
	k := Key{
		TechFP:      cfg.Tech.Fingerprint(),
		Periph:      cfg.Periph,
		Cell:        cfg.Cell,
		LongChannel: cfg.LongChannel,
		Bytes:       cfg.Bytes,
		Entries:     cfg.Entries,
		EntryBits:   cfg.EntryBits,
		WordBits:    wordBits,
		Assoc:       cfg.Assoc,
		TagBits:     cfg.TagBits,
		Banks:       cfg.Banks,
		RWPorts:     cfg.RWPorts,
		RdPorts:     cfg.RdPorts,
		WrPorts:     cfg.WrPorts,
		SearchPorts: cfg.SearchPorts,
		CellKind:    cfg.CellKind,
		TargetCycle: cfg.TargetCycle,
		Obj:         cfg.Obj,
	}
	switch {
	case cfg.FullyAssoc || cfg.CellKind == CAM:
		// newCAM: single fixed organization; no optimizer, no banking, no
		// way split. FullyAssoc and CellKind==CAM dispatch identically.
		k.CellKind = CAM
		k.Assoc = 0
		k.Banks = 1
		k.TargetCycle = 0
		k.Obj = 0
		if k.SearchPorts == 0 {
			k.SearchPorts = 1 // newCAM's own default
		}
	case cfg.CellKind == DFF:
		// newDFFArray: entries x wordBits mux/FF structure.
		k.Assoc = 0
		k.TagBits = 0
		k.Banks = 1
		k.SearchPorts = 0
		k.TargetCycle = 0
		k.Obj = 0
	case cfg.Assoc > 0:
		// newCache: data + tag arrays. Resolve the tri-state way-access
		// policy to the concrete value the synthesis uses.
		parallel := cfg.Bytes <= 64*1024
		if cfg.Sequential != nil {
			parallel = !*cfg.Sequential
		}
		k.Sequential = !parallel
		k.SearchPorts = 0
	default:
		// A plain RAM (SRAM or EDRAM): no tags, no search, no way policy.
		k.TagBits = 0
		k.SearchPorts = 0
	}
	return k
}

// shard maps the key onto a cache shard with a cheap mix of the fields
// most likely to differ between concurrently solved structures.
func (k *Key) shard() uint64 {
	h := k.TechFP
	h = h*31 + uint64(k.Bytes)
	h = h*31 + uint64(k.Entries)
	h = h*31 + uint64(k.EntryBits)
	h = h*31 + uint64(k.WordBits)
	h = h*31 + uint64(k.Assoc)
	h = h*31 + uint64(k.Banks)
	h = h*31 + uint64(k.RWPorts+k.RdPorts<<8+k.WrPorts<<16+k.SearchPorts<<24)
	h = h*31 + uint64(k.CellKind)
	h ^= h >> 33
	return h
}
