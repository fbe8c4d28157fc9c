package power

import (
	"math"
	"math/bits"
	"strconv"
)

// This file writes a finite float64 as encoding/json writes it: the
// shortest decimal that reads back as the float, found by Schubfach
// (R. Giulietti, "The Schubfach way to render doubles", 2020), in 'f'
// form from 1e-6 up to 1e21 and in exponent form outside that range.
// The decimal costs three 64x64-bit products against one tabulated power
// of ten. Schubfach was written for Java's Double.toString, which prints
// at least two digits. This writer prints as few as one, so shortest
// looks for a decimal one digit shorter from s >= 10 on (not 100) and
// has no separate path for the tiniest subnormals: 5e-324 prints as
// 5e-324, not 4.9e-324.
// TestAppendJSONFloatMatchesStrconv and FuzzAppendJSONFloat hold every
// byte to strconv.AppendFloat's.

// g(k) is tabulated for k in [pow10Min, pow10Max], the range a float64's
// decimal exponent k = floor(log10 2^q) takes.
const (
	pow10Min = -324
	pow10Max = 292
	mask63   = 1<<63 - 1
)

// pow10G[k-pow10Min] holds g(k) = floor(10^-k * 2^(125-floor(log2 10^-k))) + 1,
// a number in [2^125, 2^126), as its high and low 63 bits.
var pow10G = pow10Table()

// pow10Table computes every g(k) exactly, in fixed-point words: g(k) - 1
// is the 126 leading bits of 10^-k, read off 10^n * 2^126 for k = -n <= 0
// and off floor(2^1096 / 10^k) for k >= 1, whose leading bits are those
// of 2^1096 / 10^k because floor(floor(a/b)/c) = floor(a/(bc)).
func pow10Table() (g [pow10Max - pow10Min + 1][2]uint64) {
	x := make([]uint64, 20) // 10^324 * 2^126 < 2^1203, and a zero word
	x[1] = 1 << 62
	for n := 0; n <= -pow10Min; n++ {
		if n > 0 {
			var carry uint64
			for i := range x {
				hi, lo := bits.Mul64(x[i], 10)
				var c uint64
				x[i], c = bits.Add64(lo, carry, 0)
				carry = hi + c
			}
		}
		g[-n-pow10Min] = lead126(x)
	}
	// 2^1096, whose quotient by 10^292 still has 126 bits, and a zero word.
	x = make([]uint64, 19)
	x[17] = 1 << (1096 - 17*64)
	for k := 1; k <= pow10Max; k++ {
		var r uint64
		for i := len(x) - 1; i >= 0; i-- {
			x[i], r = bits.Div64(r, x[i], 10)
		}
		g[k-pow10Min] = lead126(x)
	}
	return g
}

// lead126 returns the 126 leading bits of x (little-endian words) plus
// one, split into its high and low 63 bits. x ends in a zero word, so
// the three words read from the one holding the lowest bit all exist.
func lead126(x []uint64) [2]uint64 {
	top := len(x) - 1
	for x[top] == 0 {
		top--
	}
	s := 64*top + bits.Len64(x[top]) - 126
	i, r := s/64, uint(s%64)
	lo := x[i]>>r | x[i+1]<<(64-r)
	hi := x[i+1]>>r | x[i+2]<<(64-r)
	lo, c := bits.Add64(lo, 1, 0)
	hi += c
	return [2]uint64{hi<<1 | lo>>63, lo & mask63}
}

// flog10pow2 is floor(log10 2^e), flog10ThreeQuartersPow2 is
// floor(log10(3/4 * 2^e)) and flog2pow10 is floor(log2 10^e), exact over
// the exponents a float64 reaches.
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// roundOdd returns cp*g/2^127 rounded to odd, for g = g1*2^63 + g0: the
// product truncated, with its lowest bit set if any bit below it was.
func roundOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&mask63+mask63)>>63
}

// shortest returns the decimal d*10^e with the fewest digits that rounds
// to the positive finite float64 with bit pattern b, and of those the one
// nearest the float, ties to even d. d may end in zeros.
func shortest(b uint64) (d uint64, e int) {
	c, q := b&(1<<52-1), -1074
	if bq := int(b >> 52); bq != 0 {
		c, q = c|1<<52, bq-1075
	}
	// Every real in [cbl, cbr]/4 * 2^q rounds to the float, the ends only
	// when c is even; at a power of two the gap below is half as wide.
	out := c & 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := flog10pow2(q)
	if c == 1<<52 && q != -1074 {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10G[k-pow10Min]
	vb := roundOdd(g[0], g[1], cb<<h)
	vbl := roundOdd(g[0], g[1], cbl<<h)
	vbr := roundOdd(g[0], g[1], cbr<<h)

	// The interval holds at most one multiple of 10^(k+1): take it if
	// there is one. Below s = 10 (the smallest subnormals) s and s+1
	// have one digit already.
	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upin := vbl+out <= sp*40
		wpin := (sp+1)*40+out <= vbr
		if upin != wpin {
			if wpin {
				sp++
			}
			return sp, k + 1
		}
	}
	// It holds s*10^k or (s+1)*10^k, or both: take the one in it, else
	// the nearer, ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if win {
			s = t
		}
		return s, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp > 0 || cmp == 0 && s&1 != 0 {
		s = t
	}
	return s, k
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

const zeros = "00000000000000000000"

// appendFloat appends the finite f as encoding/json writes a float64:
// its shortest round-trip digits in 'f' form when 1e-6 <= |f| < 1e21 or
// f is zero, else as d.ddde-7 or d.ddde+21.
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		dst = append(dst, '-')
		b &^= 1 << 63
	}
	if b == 0 {
		return append(dst, '0')
	}
	d, e := shortest(b)
	for d%10 == 0 {
		d /= 10
		e++
	}
	// Eight digits at a time in 32 bits, two at a time within them, so
	// the divisions of the two halves overlap. strconv.AppendUint divides
	// the whole 64-bit value by 100 for each pair and took about a
	// quarter longer per float in BenchmarkAppendJSONFloat (go1.24,
	// 2-vCPU Xeon).
	var buf [24]byte
	i := len(buf)
	for d >= 1e8 {
		lo := uint32(d % 1e8)
		d /= 1e8
		for range 4 {
			q := lo / 100
			r := (lo - q*100) * 2
			i -= 2
			buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
			lo = q
		}
	}
	x := uint32(d)
	for x >= 100 {
		q := x / 100
		r := (x - q*100) * 2
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		x = q
	}
	if x >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*x], digitPairs[2*x+1]
	} else {
		i--
		buf[i] = byte('0' + x)
	}
	digits := buf[i:]
	n := len(digits)
	// The float is 0.digits * 10^dp.
	dp := n + e

	if abs := math.Float64frombits(b); abs < 1e-6 || abs >= 1e21 {
		dst = append(dst, digits[0])
		if n > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		x := dp - 1
		if x < 0 {
			dst = append(dst, "e-"...)
			x = -x
		} else {
			dst = append(dst, "e+"...)
		}
		return strconv.AppendInt(dst, int64(x), 10)
	}
	switch {
	case dp <= 0:
		dst = append(dst, "0."...)
		dst = append(dst, zeros[:-dp]...)
		return append(dst, digits...)
	case dp < n:
		dst = append(dst, digits[:dp]...)
		dst = append(dst, '.')
		return append(dst, digits[dp:]...)
	default:
		dst = append(dst, digits...)
		return append(dst, zeros[:dp-n]...)
	}
}
