package array

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
)

// Disk form of the array synthesis cache.
//
// New hands the memo table a codec built from the functions below, and
// the owner of a key's flight walks memory -> disk -> synthesize (see
// internal/memo). Disk entries are keyed by the canonical Key's
// explicit binary encoding (the same identity the memory tier uses:
// normalized config plus tech-node value fingerprint) and carry the
// gob-serialized Result. Gob preserves float64 bit patterns exactly, so a
// disk-hydrated Result is bit-identical to the Result the publishing
// process synthesized — the equivalence tests pin this at the array,
// chip, and validation-target levels.
//
// The namespace carries a version; changing Key or Result shape must
// bump it so stale entries from older binaries strand (and age out via
// eviction) instead of decoding wrongly.

// arrayNS is the disk namespace of array synthesis results.
const arrayNS = "array.v1"

// encodeKey serializes the canonical Key deterministically. Explicit
// field-by-field binary encoding (not gob, not fmt) so the on-disk
// identity never depends on reflection ordering or printf formatting.
func (k *Key) encodeKey() []byte {
	buf := make([]byte, 0, 26*8)
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i := func(v int) { u(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	u(k.TechFP)
	u(uint64(k.Periph))
	u(uint64(k.Cell))
	b(k.LongChannel)
	i(k.Bytes)
	i(k.Entries)
	i(k.EntryBits)
	i(k.WordBits)
	i(k.Assoc)
	i(k.TagBits)
	i(k.Banks)
	i(k.RWPorts)
	i(k.RdPorts)
	i(k.WrPorts)
	i(k.SearchPorts)
	u(uint64(k.CellKind))
	u(math.Float64bits(k.TargetCycle))
	u(uint64(k.Obj))
	b(k.Sequential)
	return buf
}

// encodeResult serializes a synthesized Result for the disk tier.
func encodeResult(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeResult deserializes a disk entry's payload. The store already
// verified framing and checksum; a decode error here means codec skew
// and is treated as a miss by the caller.
func decodeResult(data []byte) (*Result, error) {
	var res Result
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}
