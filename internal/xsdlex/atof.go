package xsdlex

import (
	"errors"
	"math"
	"math/bits"
	"strconv"
)

// The double parser: one pass checks the xsd:double grammar and gathers
// up to 19 significant digits and the decimal exponent; the value then
// comes from Clinger's exact case (W. Clinger, "How to read floating point
// numbers accurately", 1990) or from Eisel–Lemire (D. Lemire, "Number
// parsing at a gigabyte per second", 2021). What neither settles is left
// to strconv.ParseFloat, which by then can only see well-formed input.

// text is what the lexical parsers read: a string, or a message body's
// bytes where they lie.
type text interface{ ~string | ~[]byte }

// maxDigits is how many decimal digits always fit a uint64.
const maxDigits = 19

// parseDouble parses s, already trimmed, as
//
//	[+-]? ( digit+ ( '.' digit* )? | '.' digit+ ) ( [eE] [+-]? digit+ )?
//
// or one of INF, +INF, -INF, NaN. The error is strconv.ErrSyntax or strconv.ErrRange,
// bare.
func parseDouble[T text](s T) (float64, error) {
	i, n := 0, len(s)
	// The sign is a coin toss on real data: it is kept as a bit and
	// applied as one, so that no branch has to guess it.
	var sign uint64
	if n > 0 {
		// '+' is 0x2B and '-' 0x2D: two apart, and bit 2 tells them apart.
		c := s[0]
		if (c-'+')&^2 == 0 {
			i = 1
		}
		sign = uint64(i) & uint64(c>>2)
	}
	// The digits go into mant unchecked: a uint64 holds any 19, and
	// when there turn out to be more mant is not used.
	var mant uint64
	first := i
	for ; i < n && s[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(s[i]-'0')
	}
	nd, exp10 := i-first, 0
	if i < n && s[i] == '.' {
		i++
		point := i
		for ; i < n && s[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(s[i]-'0')
		}
		exp10 = point - i
		nd -= exp10
	}
	if nd == 0 {
		switch string(s) {
		case "INF", "+INF":
			return math.Inf(1), nil
		case "-INF":
			return math.Inf(-1), nil
		case "NaN":
			return math.NaN(), nil
		}
		return 0, strconv.ErrSyntax
	}
	if i < n && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < n && (s[i] == '-' || s[i] == '+') {
			eneg = s[i] == '-'
			i++
		}
		if i == n || s[i]-'0' > 9 {
			return 0, strconv.ErrSyntax
		}
		e := 0
		for ; i < n && s[i]-'0' <= 9; i++ {
			if e < 10000 { // far outside the table already
				e = e*10 + int(s[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if i != n {
		return 0, strconv.ErrSyntax
	}
	if nd > maxDigits {
		// Leading zeros are not significant; only now do they matter.
		for j := first; j < n && (s[j] == '0' || s[j] == '.'); j++ {
			if s[j] == '0' {
				nd--
			}
		}
	}
	if nd <= maxDigits {
		if f, ok := decimalToDouble(mant, exp10); ok {
			return math.Float64frombits(math.Float64bits(f) | sign<<63), nil
		}
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		err = errors.Unwrap(err)
	}
	return f, err
}

// float64pow10 are the powers of ten a float64 holds exactly.
var float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimalToDouble returns the double nearest mant×10^exp10, or false
// when it cannot tell: the product sits too close to halfway between two
// doubles for 128 bits of 10^exp10 to decide, or the result is not a
// normal number.
func decimalToDouble(mant uint64, exp10 int) (float64, bool) {
	if mant == 0 {
		return 0, true
	}
	// Clinger: both operands exact, so one IEEE operation rounds once.
	if mant < 1<<53 {
		switch {
		case 0 <= exp10 && exp10 <= 22:
			return float64(mant) * float64pow10[exp10], true
		case -22 <= exp10 && exp10 < 0:
			return float64(mant) / float64pow10[-exp10], true
		}
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	// Eisel–Lemire. With mant normalised to 64 bits the result's binary
	// exponent is known up to the product's leading bit.
	lz := bits.LeadingZeros64(mant)
	mant <<= uint(lz)
	exp2 := uint64(floorLog2Pow10(exp10) + 64 + 1023 - lz)
	g := pow10tab[exp10-pow10Min]
	hi, lo := bits.Mul64(mant, g[0])
	// The low 9 bits of hi fall off a 54-bit significand. All ones there,
	// and a low word the missing part of 10^exp10 could carry out of,
	// means the first product does not fix them: bring in the table's
	// low word.
	if hi&0x1FF == 0x1FF && lo+mant < lo {
		yhi, ylo := bits.Mul64(mant, g[1])
		var carry uint64
		lo, carry = bits.Add64(lo, yhi, 0)
		hi += carry
		if hi&0x1FF == 0x1FF && lo+1 == 0 && ylo+mant < ylo {
			return 0, false
		}
	}
	msb := hi >> 63
	sig := hi >> (msb + 9) // 54 bits: 53 and the rounding bit
	exp2 -= 1 ^ msb
	// Exactly halfway as far as the bits kept can tell, and the tie would
	// round down to even: a dropped bit of 10^exp10 could turn it up.
	if lo == 0 && hi&0x1FF == 0 && sig&3 == 1 {
		return 0, false
	}
	sig += sig & 1
	sig >>= 1
	if sig>>53 != 0 {
		sig >>= 1
		exp2++
	}
	// Subnormal (exp2 <= 0, wrapped) and infinite (>= 0x7FF) results
	// need rounding at another bit or a range error.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | sig&(1<<52-1)), true
}
