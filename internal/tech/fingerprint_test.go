package tech

import (
	"math"
	"testing"
)

func mustNode(t *testing.T, nm float64) *Node {
	t.Helper()
	n, err := ByFeature(nm)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFingerprintDeterministic(t *testing.T) {
	a := mustNode(t, 45)
	b := mustNode(t, 45)
	if a == b {
		t.Fatal("ByFeature should return fresh nodes")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal-valued nodes must fingerprint identically")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint must be stable across calls")
	}
}

func TestFingerprintDistinguishesNodes(t *testing.T) {
	seen := map[uint64]float64{}
	for _, nm := range []float64{90, 65, 45, 32, 22} {
		fp := mustNode(t, nm).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%gnm and %gnm collide", nm, prev)
		}
		seen[fp] = nm
	}
}

func TestFingerprintTracksMutation(t *testing.T) {
	n := mustNode(t, 32)
	base := n.Fingerprint()

	n.OverrideVdd(HP, 0.8)
	if n.Fingerprint() == base {
		t.Error("OverrideVdd must change the fingerprint")
	}
}

func TestFingerprintHandlesNaN(t *testing.T) {
	a := mustNode(t, 45)
	b := mustNode(t, 45)
	a.SRAMCellArea = math.NaN()
	b.SRAMCellArea = math.NaN()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical NaN bit patterns must fingerprint identically")
	}
	c := mustNode(t, 45)
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("NaN-poisoned node must differ from a clean one")
	}
}
