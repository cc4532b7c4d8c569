// Package dragon is a from-scratch, exact shortest-round-trip printer
// for IEEE 754 binary64 values, implementing the Steele–White /
// Burger–Dybvig free-format algorithm ("Dragon4") over math/big
// integers.
//
// The paper identifies the conversion between doubles and their ASCII
// forms as *the* SOAP bottleneck (~90 % of end-to-end time in 2004).
// This package serves two purposes in the reproduction:
//
//   - It is the hand-rolled conversion substrate: byte-for-byte equal
//     to strconv's shortest 'G' formatting (property-tested), derived
//     from first principles rather than the standard library.
//
//   - It is deliberately *slow* — exact big-integer arithmetic, like
//     the printf-family conversions SOAP toolkits used in 2004. A
//     serializer built with fastconv.Dragon converts through it, to
//     emulate 2004-era conversion/transport cost ratios and recover
//     the paper's original speedup magnitudes.
package dragon

import (
	"math"
	"math/big"
)

// AppendShortest appends the shortest decimal representation of v that
// round-trips to exactly v, formatted identically to
// strconv.AppendFloat(dst, v, 'G', -1, 64).
func AppendShortest(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	neg := bits>>63 != 0
	be := int(bits >> 52 & 0x7FF)
	frac := bits & (1<<52 - 1)

	switch {
	case be == 0x7FF:
		if frac != 0 {
			return append(dst, "NaN"...)
		}
		if neg {
			return append(dst, "-Inf"...)
		}
		return append(dst, "+Inf"...)
	case be == 0 && frac == 0:
		if neg {
			dst = append(dst, '-')
		}
		return append(dst, '0')
	}

	var mant uint64
	var exp int
	if be == 0 {
		mant = frac
		exp = -1074
	} else {
		mant = frac | 1<<52
		exp = be - 1075
	}
	// The gap to the predecessor halves exactly when the mantissa sits
	// on a power-of-two boundary (and the predecessor is still normal).
	boundary := frac == 0 && be > 1

	digits, dp := shortestDigits(mant, exp, boundary)
	if neg {
		dst = append(dst, '-')
	}
	return formatG(dst, digits, dp)
}

// shortestDigits produces the shortest digit string d and decimal
// point position dp with value == 0.d × 10^dp, free-format per
// Burger & Dybvig. even-mantissa values own their interval endpoints
// (IEEE round-to-nearest-even).
func shortestDigits(mant uint64, exp int, boundary bool) (digits []byte, dp int) {
	inclusive := mant&1 == 0

	// Value = mant × 2^exp = r/s; m⁺/s and m⁻/s are the half-gaps to
	// the neighbouring floats.
	r := new(big.Int).SetUint64(mant)
	s := big.NewInt(1)
	mPlus := big.NewInt(1)
	mMinus := big.NewInt(1)
	if exp >= 0 {
		bexp := new(big.Int).Lsh(big.NewInt(1), uint(exp))
		if !boundary {
			r.Lsh(r, uint(exp)+1) // r = mant·2^exp·2
			s.SetInt64(2)
			mPlus.Set(bexp)
			mMinus.Set(bexp)
		} else {
			r.Lsh(r, uint(exp)+2) // r = mant·2^exp·4
			s.SetInt64(4)
			mPlus.Lsh(bexp, 1)
			mMinus.Set(bexp)
		}
	} else {
		if !boundary {
			r.Lsh(r, 1) // r = mant·2
			s.Lsh(s, uint(-exp)+1)
			// mPlus = mMinus = 1
		} else {
			r.Lsh(r, 2) // r = mant·4
			s.Lsh(s, uint(-exp)+2)
			mPlus.SetInt64(2)
			// mMinus = 1
		}
	}

	// within reports whether x (compared against limit) is inside the
	// rounding interval on this side.
	moreThan := func(x, limit *big.Int) bool {
		if inclusive {
			return x.Cmp(limit) >= 0
		}
		return x.Cmp(limit) > 0
	}

	// Scale so that the first generated digit is in [1, 10): find dp
	// with s·10^(dp-1) ≤ r+m⁺ < s·10^dp (with inclusivity).
	sum := new(big.Int)
	dp = 0
	for {
		sum.Add(r, mPlus)
		if moreThan(sum, s) {
			s.Mul(s, ten)
			dp++
		} else {
			sum.Mul(sum, ten)
			if moreThan(sum, s) {
				break
			}
			r.Mul(r, ten)
			mPlus.Mul(mPlus, ten)
			mMinus.Mul(mMinus, ten)
			dp--
		}
	}

	// Generate digits until the value so far uniquely identifies mant.
	q := new(big.Int)
	for {
		r.Mul(r, ten)
		mPlus.Mul(mPlus, ten)
		mMinus.Mul(mMinus, ten)
		q.QuoRem(r, s, r)
		d := byte(q.Int64())

		low := func() bool {
			if inclusive {
				return r.Cmp(mMinus) <= 0
			}
			return r.Cmp(mMinus) < 0
		}()
		high := func() bool {
			sum.Add(r, mPlus)
			return moreThan(sum, s)
		}()

		switch {
		case !low && !high:
			digits = append(digits, '0'+d)
		case low && !high:
			digits = append(digits, '0'+d)
			return digits, dp
		case high && !low:
			digits = append(digits, '0'+d+1)
			return digits, dp
		default:
			// Both ends reachable: round to the nearer candidate,
			// breaking exact ties to the even digit (matching
			// strconv's decimal rounding).
			r.Lsh(r, 1)
			switch cmp := r.Cmp(s); {
			case cmp > 0:
				d++
			case cmp == 0 && d%2 == 1:
				d++
			}
			digits = append(digits, '0'+d)
			return digits, dp
		}
	}
}

var ten = big.NewInt(10)

// formatG renders digits/dp in Go's shortest %G style: fixed notation
// when −4 ≤ dp−1 < 6 (the shortest-mode threshold Go uses for %g),
// exponent notation otherwise, with an upper-case E and a two-digit
// minimum exponent.
func formatG(dst []byte, digits []byte, dp int) []byte {
	exp := dp - 1
	if exp < -4 || exp >= 6 {
		// d.dddE±XX
		dst = append(dst, digits[0])
		if len(digits) > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
		}
		dst = append(dst, 'E')
		if exp >= 0 {
			dst = append(dst, '+')
		} else {
			dst = append(dst, '-')
			exp = -exp
		}
		if exp < 10 {
			dst = append(dst, '0', byte('0'+exp))
			return dst
		}
		var tmp [4]byte
		i := len(tmp)
		for exp > 0 {
			i--
			tmp[i] = byte('0' + exp%10)
			exp /= 10
		}
		return append(dst, tmp[i:]...)
	}

	switch {
	case dp <= 0:
		// 0.000ddd
		dst = append(dst, '0', '.')
		for i := 0; i < -dp; i++ {
			dst = append(dst, '0')
		}
		dst = append(dst, digits...)
	case dp >= len(digits):
		// ddd000
		dst = append(dst, digits...)
		for i := len(digits); i < dp; i++ {
			dst = append(dst, '0')
		}
	default:
		// dd.ddd
		dst = append(dst, digits[:dp]...)
		dst = append(dst, '.')
		dst = append(dst, digits[dp:]...)
	}
	return dst
}
