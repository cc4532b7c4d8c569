package xsdlex

import (
	"math"
	"testing"
)

// FuzzUnescape asserts entity resolution never panics, and that any
// successfully unescaped string re-escapes to something that resolves
// back to itself.
func FuzzUnescape(f *testing.F) {
	for _, s := range []string{"", "&amp;", "&#65;", "&#x41;", "a&lt;b", "&bogus;", "&", "&;", "&#xFFFFFFFFFF;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out, err := UnescapeText(s)
		if err != nil {
			return
		}
		re, err := UnescapeText(string(EscapeText(nil, out)))
		if err != nil || re != out {
			t.Fatalf("escape/unescape unstable: %q -> %q (%v)", out, re, err)
		}
	})
}

// FuzzParseDouble holds the parser to its grammar and its oracles on
// arbitrary text: accepted means the text is in the xsd:double lexical
// space and the bits are strconv's and dragon's; rejected means the text
// is outside it, or (a range error) too large for a double.
func FuzzParseDouble(f *testing.F) {
	for _, s := range []string{"0", "-1.5", "INF", "-INF", "NaN", "1e309", "..", "1E+21",
		"0x1p-2", "Infinity", "inf", "nan", "1_0", ".5", "5.", "+1.5", " 1e5\n", "+INF",
		"9007199254740993", "12345678901234567890123", "0.000000000000000000001e-320", "2.2250738585072011e-308"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s, len(s) < 64)
	})
}

// FuzzParseInt holds the digit loop to strconv.ParseInt at 32 bits on
// arbitrary text: same acceptance, same value, same error kind.
func FuzzParseInt(f *testing.F) {
	for _, s := range []string{"0", "-7", "+7", "2147483647", "-2147483648", "2147483648", "-2147483649",
		"-21474836480", "-214748364800000", "21474836480", "", "-", "1_0", "0x10", "12x", " 42\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParseInt(t, s)
	})
}

// FuzzAppendDouble holds the printer to strconv (and dragon) on arbitrary
// bit patterns.
func FuzzAppendDouble(f *testing.F) {
	for _, bits := range []uint64{0, 1, 1 << 63, 0x3FF0000000000000, 0x7FEFFFFFFFFFFFFF, 0x0010000000000000,
		0x000FFFFFFFFFFFFF, 0x4340000000000000, 0x44B52D02C7E14AF6, 0x3F1A36E2EB1C432D, 0x412E847FCCCCCCCD} {
		f.Add(bits)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); v == v && !math.IsInf(v, 0) {
			checkPrint(t, v, true)
		}
	})
}

// FuzzAppendInt holds the int printer to strconv on arbitrary int32s.
func FuzzAppendInt(f *testing.F) {
	for _, v := range []int32{0, 1, -1, 9, 10, -10, 99999999, 100000000, -100000000, math.MaxInt32, math.MinInt32} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int32) {
		checkAppendInt(t, v)
	})
}
