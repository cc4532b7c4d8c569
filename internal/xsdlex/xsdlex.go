// Package xsdlex implements the XSD lexical forms used on the SOAP wire:
// encoding and parsing of xsd:int, xsd:double, xsd:string and xsd:boolean
// values, the maximum serialized widths the paper's stuffing technique
// relies on, and the XML character-data escaping rules.
//
// The width constants are load-bearing for the reproduction: the paper's
// worst-case shifting experiments grow a double from its smallest lexical
// form (1 character, e.g. "5") to its largest (24 characters, e.g.
// "-1.7976931348623157E+308"), and an MIO — a struct of two ints and a
// double — from 3 to 46 characters (11+11+24).
package xsdlex

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Maximum number of characters any value of the given XSD type can occupy
// in the lexical form produced by this package. Strings have no bound
// (the paper notes strings cannot take advantage of stuffing).
const (
	// MaxIntWidth is len("-2147483648"): xsd:int is a 32-bit integer.
	MaxIntWidth = 11
	// MaxLongWidth is len("-9223372036854775808") for xsd:long.
	MaxLongWidth = 20
	// MaxDoubleWidth is len("-1.7976931348623157E+308"), the longest
	// shortest-round-trip representation of an IEEE 754 binary64.
	MaxDoubleWidth = 24
	// MaxBoolWidth is len("false").
	MaxBoolWidth = 5
	// MinIntWidth, MinDoubleWidth are the smallest possible lexical forms
	// ("0" .. "9"), used by the shifting experiments.
	MinIntWidth    = 1
	MinDoubleWidth = 1
)

// AppendInt appends the canonical lexical form of a 32-bit integer to dst.
// The result is at most MaxIntWidth bytes.
func AppendInt(dst []byte, v int32) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// AppendLong appends the canonical lexical form of a 64-bit integer to dst.
func AppendLong(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendDouble appends the shortest lexical form of v that parses back to
// exactly v, using the XSD double style (decimal or exponent notation with
// an upper-case E). Special values use the XSD lexical names INF, -INF and
// NaN. The result is at most MaxDoubleWidth bytes.
func AppendDouble(dst []byte, v float64) []byte {
	ieee := math.Float64bits(v)
	if ieee>>52&0x7FF == 0x7FF {
		switch {
		case ieee<<12 != 0:
			return append(dst, "NaN"...)
		case ieee>>63 != 0:
			return append(dst, "-INF"...)
		}
		return append(dst, "INF"...)
	}
	return appendShortest(dst, ieee)
}

// AppendBool appends "true" or "false".
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// IntLen reports the exact encoded length of v without allocating.
func IntLen(v int32) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = uint64(-int64(v))
	}
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

// DoubleLen reports len(AppendDouble(nil, v)) from the shortest form's
// digit count and exponent, without rendering it. The workload generators'
// tests use it to hold the paper's field widths.
func DoubleLen(v float64) int {
	ieee := math.Float64bits(v)
	frac, be := ieee&(1<<52-1), int(ieee>>52&0x7FF)
	if be == 0x7FF || ieee<<1 == 0 {
		var name [len("-INF")]byte
		return len(AppendDouble(name[:0], v))
	}
	d, k := shortestDecimal(frac, be)
	nd := decimalLen(d)
	return int(ieee>>63) + shortestLen(nd, nd+k)
}

// ParseInt parses the lexical form of an xsd:int, [+-]?digit+, accepting
// surrounding XML whitespace (the collapse facet). The Parse functions read
// a string or a byte slice in place, and like strconv copy the input into
// the error rather than retain it.
func ParseInt[T text](s T) (int32, error) {
	t := TrimSpace(s)
	v, err := parseInt(t)
	if err != nil {
		return 0, fmt.Errorf("xsdlex: invalid int %q: %w", strings.Clone(string(t)), err)
	}
	return v, nil
}

// parseInt returns strconv.ErrSyntax or strconv.ErrRange, bare.
func parseInt[T text](t T) (int32, error) {
	i, neg := 0, false
	if len(t) > 0 && (t[0] == '-' || t[0] == '+') {
		neg = t[0] == '-'
		i = 1
	}
	if i == len(t) {
		return 0, strconv.ErrSyntax
	}
	var v int64
	for ; i < len(t); i++ {
		c := t[i] - '0'
		if c > 9 {
			return 0, strconv.ErrSyntax
		}
		if v > math.MaxInt32 {
			// A digit after 2^31 or more: out of range whatever follows.
			// Pin v where neither sign fits, so -2147483648 followed by
			// more digits cannot pass as MinInt32.
			v = math.MaxInt64
		} else {
			v = v*10 + int64(c)
		}
	}
	if neg {
		v = -v
	}
	if int64(int32(v)) != v {
		return 0, strconv.ErrRange
	}
	return int32(v), nil
}

// ParseLong parses the lexical form of an xsd:long.
func ParseLong(s string) (int64, error) {
	s = TrimSpace(s)
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("xsdlex: invalid long %q: %w", strings.Clone(s), err)
	}
	return v, nil
}

// ParseDouble parses the lexical form of an xsd:double — a decimal with
// an optional exponent, or one of INF, +INF, -INF and NaN — accepting
// surrounding whitespace. Nothing else strconv.ParseFloat would read
// (hexadecimal, underscores, "Infinity", names in another case) is a
// double here. A value too large for a double is a range error.
func ParseDouble[T text](s T) (float64, error) {
	t := TrimSpace(s)
	v, err := parseDouble(t)
	if err != nil {
		return 0, fmt.Errorf("xsdlex: invalid double %q: %w", strings.Clone(string(t)), err)
	}
	return v, nil
}

// ParseBool parses the XSD boolean lexical space: true, false, 1, 0.
func ParseBool[T text](s T) (bool, error) {
	switch string(TrimSpace(s)) {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("xsdlex: invalid boolean %q", strings.Clone(string(s)))
}

// IsSpace reports whether b is an XML white-space character.
func IsSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// TrimSpace trims XML white space from both ends of s. It differs from
// strings.TrimSpace in trimming exactly the four XML space characters,
// nothing Unicode.
func TrimSpace[T text](s T) T {
	for len(s) > 0 && IsSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && IsSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// EscapeText appends s to dst with the five XML character entities applied
// to the characters that are not allowed to appear literally in character
// data or attribute values.
func EscapeText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			ent = "&quot;"
		case '\'':
			ent = "&apos;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, ent...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// EscapedLen reports len(EscapeText(nil, s)) without allocating.
func EscapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			n += 4
		case '<', '>':
			n += 3
		case '"', '\'':
			n += 5
		}
	}
	return n
}

// UnescapeText resolves the five predefined entities plus decimal and
// hexadecimal character references in s. Unknown entities are an error.
func UnescapeText(s string) (string, error) {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for {
		b.WriteString(s[:amp])
		s = s[amp:]
		semi := strings.IndexByte(s, ';')
		if semi < 0 {
			return "", fmt.Errorf("xsdlex: unterminated entity in %q", s)
		}
		ent := s[1:semi]
		switch ent {
		case "amp":
			b.WriteByte('&')
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "quot":
			b.WriteByte('"')
		case "apos":
			b.WriteByte('\'')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				r, err := parseCharRef(ent[1:])
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			} else {
				return "", fmt.Errorf("xsdlex: unknown entity &%s;", ent)
			}
		}
		s = s[semi+1:]
		amp = strings.IndexByte(s, '&')
		if amp < 0 {
			b.WriteString(s)
			return b.String(), nil
		}
	}
}

func parseCharRef(s string) (rune, error) {
	base := 10
	if len(s) > 0 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, base, 32)
	if err != nil || v > 0x10FFFF {
		return 0, fmt.Errorf("xsdlex: bad character reference &#%s;", s)
	}
	return rune(v), nil
}
