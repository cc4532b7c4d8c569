// Package wire defines the type system and in-memory message model that
// the serializers operate on. A Message is an RPC operation plus a list
// of typed parameters whose scalar leaves are stored in flat slices and
// tracked with per-leaf dirty bits — the paper's requirement that all
// serializable data live behind get/set accessors "whose implementation
// will update the DUT table transparently" (§3.1).
package wire

import (
	"fmt"
	"strings"

	"bsoap/internal/xsdlex"
)

// Kind enumerates the value categories the wire format supports.
type Kind uint8

const (
	// Invalid is the zero Kind.
	Invalid Kind = iota
	// Int is xsd:int, a 32-bit signed integer.
	Int
	// Double is xsd:double, an IEEE 754 binary64.
	Double
	// String is xsd:string.
	String
	// Bool is xsd:boolean.
	Bool
	// Struct is a compound type with named, typed fields.
	Struct
	// Array is a SOAP-ENC array of a single element type.
	Array
)

// String returns a readable kind name.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Double:
		return "double"
	case String:
		return "string"
	case Bool:
		return "boolean"
	case Struct:
		return "struct"
	case Array:
		return "array"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Scalar reports whether the kind is a leaf value.
func (k Kind) Scalar() bool {
	switch k {
	case Int, Double, String, Bool:
		return true
	}
	return false
}

// Field is one named member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Type describes a wire type. Types are immutable after construction and
// may be shared freely across messages and goroutines.
type Type struct {
	Kind   Kind
	Name   string  // XSD/schema type name, e.g. "xsd:double" or "ns1:MIO"
	Elem   *Type   // element type, for Array
	Fields []Field // members, for Struct

	leaves int // cached leaf count per value of this type
}

// Singleton scalar types.
var (
	TInt    = &Type{Kind: Int, Name: "xsd:int", leaves: 1}
	TDouble = &Type{Kind: Double, Name: "xsd:double", leaves: 1}
	TString = &Type{Kind: String, Name: "xsd:string", leaves: 1}
	TBool   = &Type{Kind: Bool, Name: "xsd:boolean", leaves: 1}
)

// StructOf builds a struct type. Fields must be scalars or structs;
// arrays inside structs are not supported (the paper's workloads never
// need them, and the restriction keeps leaf indexing affine).
func StructOf(name string, fields ...Field) *Type {
	if len(fields) == 0 {
		panic("wire: struct with no fields")
	}
	n := 0
	for _, f := range fields {
		if f.Type == nil || f.Type.Kind == Array {
			panic(fmt.Sprintf("wire: struct field %q has unsupported type", f.Name))
		}
		n += f.Type.leaves
	}
	return &Type{Kind: Struct, Name: name, Fields: fields, leaves: n}
}

// ArrayOf builds an array type. Element types must be scalars or structs.
func ArrayOf(elem *Type) *Type {
	if elem == nil || elem.Kind == Array {
		panic("wire: unsupported array element type")
	}
	return &Type{Kind: Array, Name: elem.Name + "[]", Elem: elem, leaves: elem.leaves}
}

// LeavesPerValue reports how many scalar leaves one value of this type
// occupies (for arrays: per element).
func (t *Type) LeavesPerValue() int { return t.leaves }

// countLeaves adds, per scalar kind, the leaves one value of this type
// occupies.
func (t *Type) countLeaves(perKind *[Bool + 1]int) {
	if t.Kind != Struct {
		perKind[t.Kind]++
		return
	}
	for _, f := range t.Fields {
		f.Type.countLeaves(perKind)
	}
}

// MaxWidth reports the maximum serialized width of a scalar type's
// lexical form, or 0 if unbounded (strings). It panics on non-scalars.
func (t *Type) MaxWidth() int {
	switch t.Kind {
	case Int:
		return xsdlex.MaxIntWidth
	case Double:
		return xsdlex.MaxDoubleWidth
	case Bool:
		return xsdlex.MaxBoolWidth
	case String:
		return 0
	}
	panic("wire: MaxWidth of non-scalar type " + t.Name)
}

// Signature appends a canonical structural description of the type,
// used for template structural matching.
func (t *Type) Signature(b *strings.Builder) {
	switch t.Kind {
	case Array:
		b.WriteString("[]")
		t.Elem.Signature(b)
	case Struct:
		b.WriteString("{")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			f.Type.Signature(b)
		}
		b.WriteString("}")
	default:
		b.WriteString(t.Kind.String())
	}
}
