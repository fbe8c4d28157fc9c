package tech

import "math"

// Fingerprint returns a 64-bit hash over every synthesis-relevant
// parameter of the node: feature size, cell geometries, all three device
// classes, and all wire classes under both projections. Two nodes with
// equal fingerprints are interchangeable as far as the circuit and array
// models are concerned, which is what makes the fingerprint a sound
// cache-key component for memoized synthesis (see internal/array).
//
// The fingerprint deliberately excludes Name (presentation only).
// Temperature is not a node field: synthesis runs at ReferenceTempK and
// leakage is retuned per Score via LeakScaleAt, so a thermal feedback
// loop that sweeps temperature every interval hits the same cache
// entries throughout.
//
// The hash is recomputed from current field values on every call, so
// in-place mutations (OverrideVdd, test poisoning) always change the
// identity a subsequent synthesis sees. It mixes one 64-bit word per
// field (see hashU), so the recompute stays cheap enough for every memo
// lookup to pay it.
func (n *Node) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = hashF(h, n.Feature)
	h = hashF(h, n.SRAMCellArea)
	h = hashF(h, n.CAMCellArea)
	h = hashF(h, n.DFFCellArea)
	h = hashF(h, n.SRAMCellAspect)
	h = hashF(h, n.SRAMCellNMOSWidth)
	h = hashF(h, n.SRAMCellPMOSWidth)
	for i := range n.devices {
		d := &n.devices[i]
		h = hashF(h, d.Vdd)
		h = hashF(h, d.Vth)
		h = hashF(h, d.IonN)
		h = hashF(h, d.IonP)
		h = hashF(h, d.IoffN)
		h = hashF(h, d.IoffP)
		h = hashF(h, d.IgN)
		h = hashF(h, d.CgPerW)
		h = hashF(h, d.CjPerW)
		h = hashF(h, d.Leff)
		if d.LongChannel {
			h = hashU(h, 1)
		} else {
			h = hashU(h, 0)
		}
	}
	for p := range n.wires {
		for w := range n.wires[p] {
			wire := &n.wires[p][w]
			h = hashF(h, wire.ResPerM)
			h = hashF(h, wire.CapPerM)
			h = hashF(h, wire.Pitch)
		}
	}
	return h
}

// The mix runs over the IEEE-754 bit patterns. Bit patterns (not
// values) keep the hash total: NaNs and signed zeros poisoned into test
// nodes still produce a deterministic, distinguishing identity.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashF(h uint64, v float64) uint64 { return hashU(h, math.Float64bits(v)) }

// hashU folds one word into the state: xor it in, multiply by the (odd)
// FNV prime, then xor the high half onto the low half. Each of the three
// steps is invertible, so for a fixed tail of words the state maps to
// the final hash one-to-one: two nodes that differ in exactly one field
// never share a fingerprint.
func hashU(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h ^ h>>32
}
