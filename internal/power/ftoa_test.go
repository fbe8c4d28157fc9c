package power

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestAppendJSONFloatMatchesStrconv holds the float writer to its
// reference, strconv.AppendFloat as encoding/json calls it, byte for
// byte, for each value and its negation: every exponent at the mantissas
// where the spacing or the rounding interval changes and at random
// mantissas, every power of ten with both neighbours, the 'f'/'e' switch
// points, the smallest subnormals, the integers where the spacing passes
// 1 and 2, and random bit patterns.
func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	bad := 0
	check := func(f float64) {
		t.Helper()
		for _, v := range [2]float64{f, -f} {
			got, err := AppendJSONFloat([]byte("x"), v)
			if want := appendJSONFloatRef([]byte("x"), v); err != nil || !bytes.Equal(got, want) {
				if bad++; bad <= 10 {
					t.Errorf("%#016x: got %q (%v), want %q", math.Float64bits(v), got, err, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(30, 1))
	for exp := uint64(0); exp < 2047; exp++ {
		for _, m := range []uint64{0, 1, 2, 3, 1 << 51, 1<<52 - 2, 1<<52 - 1} {
			check(math.Float64frombits(exp<<52 | m))
		}
		for range 16 {
			check(math.Float64frombits(exp<<52 | rng.Uint64N(1<<52)))
		}
	}
	for e := -324; e <= 308; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		check(math.Nextafter(p, 0))
		check(p)
		check(math.Nextafter(p, math.Inf(1)))
	}
	for _, x := range []float64{1e-6, 1e21, 1 << 53, 1 << 54} {
		lo, hi := x, x
		for range 64 {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
			check(lo)
			check(hi)
		}
	}
	for m := uint64(1); m <= 1<<12; m++ { // 5e-324 to 2.0237e-320
		check(math.Float64frombits(m))
	}
	for range 150_000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
	if bad > 0 {
		t.Errorf("%d mismatches", bad)
	}
}

// TestPow10Table recomputes every g(k) = floor(10^-k * 2^(125-floor(log2
// 10^-k))) + 1 with math/big, and checks the exponent estimates the
// writer indexes it with against exact powers: floor(log2 10^-k) for
// every k, and floor(log10 2^q) and floor(log10(3/4 * 2^q)) for every
// float64 exponent q.
func TestPow10Table(t *testing.T) {
	one := big.NewInt(1)
	pow := func(base int64, e int) *big.Int {
		return new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(max(e, -e))), nil)
	}
	for k := pow10Min; k <= pow10Max; k++ {
		p := pow(10, k) // 10^|k|
		g := new(big.Int)
		var lg int // floor(log2 10^-k); 10^k is no power of two for k >= 1
		if k <= 0 {
			lg = p.BitLen() - 1
			g.Rsh(g.Lsh(p, 125), uint(lg))
		} else {
			lg = -p.BitLen()
			g.Quo(g.Lsh(one, uint(125-lg)), p)
		}
		if got := flog2pow10(-k); got != lg {
			t.Errorf("flog2pow10(%d) = %d, want %d", -k, got, lg)
		}
		g.Add(g, one)
		hi := new(big.Int).Rsh(g, 63)
		lo := new(big.Int).And(g, big.NewInt(mask63))
		if got := pow10G[k-pow10Min]; g.BitLen() != 126 || got[0] != hi.Uint64() || got[1] != lo.Uint64() {
			t.Errorf("g(%d) = %#x*2^63 + %#x, want %#x", k, got[0], got[1], g)
		}
	}

	rat := func(base int64, e int) *big.Rat {
		p := pow(base, e)
		if e < 0 {
			return new(big.Rat).SetFrac(one, p)
		}
		return new(big.Rat).SetInt(p)
	}
	// in reports whether 10^k <= v < 10^(k+1).
	in := func(v *big.Rat, k int) bool {
		return rat(10, k).Cmp(v) <= 0 && v.Cmp(rat(10, k+1)) < 0
	}
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		v := rat(2, q)
		if k := flog10pow2(q); !in(v, k) {
			t.Errorf("flog10pow2(%d) = %d", q, k)
		}
		if k := flog10ThreeQuartersPow2(q); q > -1074 && !in(v.Mul(v, threeQuarters), k) {
			t.Errorf("flog10ThreeQuartersPow2(%d) = %d", q, k)
		}
	}
}

// FuzzAppendJSONFloat holds one float64 to the strconv reference; NaN
// and ±Inf must fail and leave dst as it was.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-322, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		0.1, 0.3, 1.25e-6, 3.5, 123.456, 1 << 53, 1<<53 + 2, 1e23, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		got, err := AppendJSONFloat([]byte("x"), v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if err == nil || string(got) != "x" {
				t.Fatalf("%v: got %q, %v; want an error and dst unchanged", v, got, err)
			}
			return
		}
		if want := appendJSONFloatRef([]byte("x"), v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%#016x: got %q (%v), want %q", math.Float64bits(v), got, err, want)
		}
	})
}

// BenchmarkAppendJSONFloat writes one float per op, cycling over a fixed
// seeded set: 960 values whose magnitudes are log-uniform from 1e-7 to
// 1e3, the range a power report's watts and mm^2 take, and 64 in
// exponent form (1e-30 to 1e-7 and 1e21 to 1e30), half of them negative.
func BenchmarkAppendJSONFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(30, 2))
	vals := make([]float64, 1024)
	for i := range vals {
		lg := -7 + 10*rng.Float64()
		switch {
		case i >= 992:
			lg = 21 + 9*rng.Float64()
		case i >= 960:
			lg = -30 + 23*rng.Float64()
		}
		vals[i] = math.Pow(10, lg)
		if i%2 == 1 {
			vals[i] = -vals[i]
		}
	}
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		buf, _ = AppendJSONFloat(buf[:0], vals[i%len(vals)])
	}
}
