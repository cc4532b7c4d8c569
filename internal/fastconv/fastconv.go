// Package fastconv provides the tight value-to-ASCII conversion loops the
// serialization hot paths use. The paper identifies conversion between
// floating-point numbers and their ASCII representation as the dominant
// SOAP cost (≈90% of end-to-end time), so every serializer in this
// repository funnels through these routines.
//
// Unlike strconv's generic appenders, these writers target a caller-owned
// region of a template chunk: they write the value at a fixed position,
// report the bytes used, and can left-pad or right-pad to a field width
// without allocating.
package fastconv

import (
	"bsoap/internal/dragon"
	"bsoap/internal/xsdlex"
	"math"
)

// WriteInt writes the decimal form of v at dst[0:] and returns the number
// of bytes written. dst must have room for xsdlex.MaxIntWidth bytes.
func WriteInt(dst []byte, v int32) int {
	if v == 0 {
		dst[0] = '0'
		return 1
	}
	var tmp [xsdlex.MaxIntWidth]byte
	u := uint32(v)
	neg := v < 0
	if neg {
		u = uint32(-int64(v)) // handles MinInt32
	}
	i := len(tmp)
	for u > 0 {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
	}
	n := 0
	if neg {
		dst[0] = '-'
		n = 1
	}
	n += copy(dst[n:], tmp[i:])
	return n
}

// WriteLong writes the decimal form of v at dst[0:] and returns the number
// of bytes written. dst must have room for xsdlex.MaxLongWidth bytes.
func WriteLong(dst []byte, v int64) int {
	if v == 0 {
		dst[0] = '0'
		return 1
	}
	var tmp [xsdlex.MaxLongWidth]byte
	u := uint64(v)
	neg := v < 0
	if neg {
		u = -u
	}
	i := len(tmp)
	for u > 0 {
		i--
		tmp[i] = byte('0' + u%10)
		u /= 10
	}
	n := 0
	if neg {
		dst[0] = '-'
		n = 1
	}
	n += copy(dst[n:], tmp[i:])
	return n
}

// doubleConverter is the pluggable double→ASCII routine every
// serializer in the repository funnels through. The default is xsdlex's
// Schubfach printer; SetDoubleConverter swaps it, e.g. for the exact
// big-integer dragon printer that emulates 2004-era conversion costs.
// Not safe to swap concurrently with serialization.
var doubleConverter = defaultDoubleConverter

func defaultDoubleConverter(dst []byte, v float64) int {
	return len(xsdlex.AppendDouble(dst[:0], v))
}

// DragonDoubleConverter converts through the from-scratch exact
// Dragon4 printer (internal/dragon), with the XSD special-value names.
// It is deliberately slow — big-integer arithmetic per value, like the
// printf-family conversions of 2004-era SOAP stacks.
func DragonDoubleConverter(dst []byte, v float64) int {
	switch {
	case math.IsInf(v, 1):
		return copy(dst, "INF")
	case math.IsInf(v, -1):
		return copy(dst, "-INF")
	case math.IsNaN(v):
		return copy(dst, "NaN")
	}
	return len(dragon.AppendShortest(dst[:0], v))
}

// SetDoubleConverter installs fn as the double conversion routine and
// returns a function restoring the previous one.
func SetDoubleConverter(fn func(dst []byte, v float64) int) (restore func()) {
	prev := doubleConverter
	doubleConverter = fn
	return func() { doubleConverter = prev }
}

// WriteDouble writes the shortest round-trip form of v at dst[0:] and
// returns the number of bytes written. dst must have room for
// xsdlex.MaxDoubleWidth bytes.
func WriteDouble(dst []byte, v float64) int {
	return doubleConverter(dst, v)
}

// WriteBool writes "true" or "false" and returns the bytes written.
func WriteBool(dst []byte, v bool) int {
	if v {
		return copy(dst, "true")
	}
	return copy(dst, "false")
}

// Pad fills dst[from:to] with the XML-legal space character. The paper's
// stuffing technique pads the gap between a field's closing tag and the
// next opening tag with whitespace, which XML explicitly permits.
func Pad(dst []byte, from, to int) {
	for i := from; i < to; i++ {
		dst[i] = ' '
	}
}
