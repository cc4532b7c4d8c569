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
// of bytes written. dst must have room for xsdlex.MaxIntWidth bytes. It
// is xsdlex.AppendInt, the one int printer, which the serializers call
// directly; the name stays for the benchmark's per-layer probe.
func WriteInt(dst []byte, v int32) int {
	return len(xsdlex.AppendInt(dst[:0], v))
}

// Converter selects the double→ASCII routine a serializer prints with.
// The zero value is xsdlex's Schubfach printer; Dragon is the exact
// big-integer printer that emulates 2004-era conversion costs. It is a
// value held by each serializer, not a process-global function: the
// call it makes is direct, so escape analysis keeps a caller's scratch
// buffer on its stack.
type Converter uint8

// Dragon converts through the from-scratch exact Dragon4 printer
// (internal/dragon), with the XSD special-value names. It is
// deliberately slow — big-integer arithmetic per value, like the
// printf-family conversions of 2004-era SOAP stacks.
const Dragon Converter = 1

// WriteDouble writes the shortest round-trip form of v at dst[0:] with
// c's routine and returns the number of bytes written. dst must have
// room for xsdlex.MaxDoubleWidth bytes.
func (c Converter) WriteDouble(dst []byte, v float64) int {
	if c != Dragon {
		return len(xsdlex.AppendDouble(dst[:0], v))
	}
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

// WriteDouble writes v with the default converter (Converter's zero
// value).
func WriteDouble(dst []byte, v float64) int {
	return Converter(0).WriteDouble(dst, v)
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
