package xsdlex

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

//go:generate go run gen_pow10.go

// The double printer: Schubfach (Giulietti, "The Schubfach way to render
// doubles", 2020) finds the shortest decimal that reads back as the same
// binary64 — one table entry and three 64×128-bit products, no digit
// search — and appendShortest lays its digits out as strconv's 'G' verb
// with precision -1 does, directly in the caller's buffer.

// floorLog2Pow10 is floor(log2(10^q)) for |q| <= 1233.
func floorLog2Pow10(q int) int { return q * 1741647 >> 19 }

// shortestDecimal returns d and k with d×10^k the shortest decimal that
// rounds to the finite, nonzero double with fraction field frac and biased
// exponent field be; among equally short ones, the closest. d has at most
// 17 digits and does not end in zero.
func shortestDecimal(frac uint64, be int) (d uint64, k int) {
	c, q := frac, -1074
	if be != 0 {
		c, q = frac|1<<52, be-1075
		// An integer below 2^53 is its own shortest form.
		if 0 <= -q && -q <= 52 && c&(1<<uint(-q)-1) == 0 {
			return stripZeros(c>>uint(-q), 0)
		}
	}
	// The double owns its rounding interval's endpoints when its
	// significand is even (ties round to even).
	odd := c & 1
	// The interval, scaled by 4: [cbl, cbr] around cb. Below a power
	// of two the lower neighbour is half as far.
	cb := 4 * c
	cbl, cbr := cb-2, cb+2
	// k = floor(log10(2^q)), or floor(log10(3/4·2^q)) for the narrow interval.
	k = q * 1262611 >> 22
	if frac == 0 && be > 1 {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22
	}
	// Scale by 10^-k·2^h so the integer parts of the products are the
	// candidates: h puts 1 to 4 integer bits above the 2 guard bits.
	h := uint(q + floorLog2Pow10(-k) + 1)
	// As two words, not a copy of the entry: an array the increment
	// below writes to lives in memory, and all three products wait on it.
	ghi, glo := pow10tab[-k-pow10Min][0], pow10tab[-k-pow10Min][1]
	if uint(-k) > pow10Exact {
		// Schubfach wants 10^-k rounded up; the table rounds down.
		var carry uint64
		glo, carry = bits.Add64(glo, 1, 0)
		ghi += carry
	}
	vbl := mulRoundOdd(ghi, glo, cbl<<h)
	vb := mulRoundOdd(ghi, glo, cb<<h)
	vbr := mulRoundOdd(ghi, glo, cbr<<h)
	lower, upper := vbl+odd, vbr-odd

	// One digit fewer, if a multiple of 10^(k+1) lies in the interval
	// (at most one does: the interval is narrower than 10^(k+1)).
	s := vb / 4
	if s >= 10 {
		sp := s / 10
		down, up := lower <= 40*sp, 40*sp+40 <= upper
		if down != up {
			if up {
				sp++
			}
			return stripZeros(sp, k+1)
		}
	}
	// Otherwise the multiple of 10^k nearest the value; both neighbours
	// may lie inside, then the halfway case goes to the even one. Neither
	// ends in zero, or it was found above — unless s < 10 skipped that.
	down, up := lower <= 4*s, 4*s+4 <= upper
	if down == up {
		mid := 4*s + 2
		up = vb > mid || vb == mid && s&1 != 0
	}
	if up {
		s++
	}
	if s == 10 {
		return 1, k + 1
	}
	return s, k
}

// mulRoundOdd returns the top 64 bits of the 192-bit product g×cp, with
// the lowest bit set if any of the bits dropped below it was: enough to
// compare the exact product with a multiple of 2.
func mulRoundOdd(ghi, glo, cp uint64) uint64 {
	xhi, _ := bits.Mul64(glo, cp)
	yhi, ylo := bits.Mul64(ghi, cp)
	ylo, carry := bits.Add64(ylo, xhi, 0)
	yhi += carry
	if ylo > 1 {
		yhi |= 1
	}
	return yhi
}

// stripZeros removes d's trailing decimal zeros, adding their count to k.
func stripZeros(d uint64, k int) (uint64, int) {
	if d%10 != 0 { // nine in ten of the digit strings that are not short
		return d, k
	}
	if d%1e8 == 0 {
		d, k = d/1e8, k+8
	}
	if d%1e4 == 0 {
		d, k = d/1e4, k+4
	}
	if d%100 == 0 {
		d, k = d/100, k+2
	}
	if d%10 == 0 {
		d, k = d/10, k+1
	}
	return d, k
}

// decimalLen is the number of decimal digits of d, 1 <= d < 10^17.
func decimalLen(d uint64) int {
	// 1233/4096 approximates log10(2). The estimate is one short when d
	// has reached the power of ten inside its power-of-two range: then
	// the difference below is negative, and its sign bit the correction
	// (as arithmetic, because a branch here would be taken about half
	// the time).
	n := bits.Len64(d) * 1233 >> 12
	return n + int((pow10u64[n]-d-1)>>63)
}

var pow10u64 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// The %G rule for the shortest form: with x the decimal exponent of the
// first digit, positional notation for -4 <= x < 6, else d.dddE±xx.
const fixedMinExp, fixedMaxExp = -4, 5

// shortestLen is the length of the form appendShortest writes for nd
// digits with the decimal point dp places right of the first.
func shortestLen(nd, dp int) int {
	x := dp - 1
	switch {
	case x < fixedMinExp || x > fixedMaxExp:
		n := nd + 4 // digits, E, sign, two exponent digits
		if nd > 1 {
			n++ // the point
		}
		if x <= -100 || x >= 100 {
			n++
		}
		return n
	case dp <= 0:
		return 2 - dp + nd // "0.", -dp zeros, digits
	case dp < nd:
		return nd + 1
	}
	return dp // digits, dp-nd zeros
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

// putDigits writes d's decimal digits into buf, which is exactly as long
// as d has digits.
func putDigits(buf []byte, d uint64) {
	i := len(buf)
	for i >= 8 {
		q := d / 1e8
		i -= 8
		binary.LittleEndian.PutUint64(buf[i:], eightDigits(uint32(d-q*1e8)))
		d = q
	}
	v := uint32(d)
	for i >= 2 {
		i -= 2
		r := v % 100 * 2
		v /= 100
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
	}
	if i == 1 {
		buf[0] = byte('0' + v)
	}
}

// eightDigits returns the eight ASCII digits of v < 10^8, zero-padded, the
// first in the low byte. It halves the number three times — 4+4 digits,
// then 2+2 in each 32-bit lane, then 1+1 in each 16-bit lane — dividing
// every lane of a level in one multiplication by a rounded-up reciprocal
// (10486/2^20 for 100 below 10^4, 103/2^10 for 10 below 100).
func eightDigits(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	q := x * 10486 >> 20 & 0x0000007F_0000007F
	y := q | (x-q*100)<<16
	q = y * 103 >> 10 & 0x000F000F_000F000F
	return (q | (y-q*10)<<8) + 0x30303030_30303030
}

// appendShortest appends the finite double with the given IEEE 754 bits
// as strconv.AppendFloat(dst, v, 'G', -1, 64) would, byte for byte.
func appendShortest(dst []byte, ieee uint64) []byte {
	neg := int(ieee >> 63)
	frac, be := ieee&(1<<52-1), int(ieee>>52&0x7FF)
	if frac == 0 && be == 0 {
		if neg != 0 {
			dst = append(dst, '-')
		}
		return append(dst, '0')
	}
	d, k := shortestDecimal(frac, be)
	nd := decimalLen(d)
	dp := nd + k
	n := neg + shortestLen(nd, dp)
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	dst = dst[:len(dst)+n]
	out[0] = '-' // overwritten unless it belongs: the sign is a coin toss, not worth a branch
	out = out[neg:]
	switch x := dp - 1; {
	case x < fixedMinExp || x > fixedMaxExp:
		// Digits one place right of where they belong, then the first
		// moves left over the gap and the point takes its place.
		if nd > 1 {
			putDigits(out[1:nd+1], d)
			out[0], out[1] = out[1], '.'
			out = out[nd+1:]
		} else {
			out[0] = byte('0' + d)
			out = out[1:]
		}
		out[0], out[1] = 'E', '+'
		if x < 0 {
			out[1], x = '-', -x
		}
		if x >= 100 {
			out[2] = byte('0' + x/100)
			x %= 100
			out = out[1:]
		}
		out[2], out[3] = digitPairs[2*x], digitPairs[2*x+1]
	case dp <= 0:
		copy(out, "0.0000"[:2-dp])
		putDigits(out[2-dp:], d)
	case dp < nd:
		putDigits(out[1:], d)
		for i := 0; i < dp; i++ { // at most 6: not worth a memmove
			out[i] = out[i+1]
		}
		out[dp] = '.'
	default:
		putDigits(out[:nd], d)
		copy(out[nd:], "00000")
	}
	return dst
}
