package wire

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Param is one named parameter of a message. For arrays, Count is the
// element count; for scalars and structs it is 1. First is the index of
// the parameter's first scalar leaf in the message's flat leaf storage.
type Param struct {
	Name  string
	Type  *Type
	Count int
	First int
}

// leafSlot locates a scalar leaf: which parameter, and the offset of the
// leaf's scalar type within the element.
type leafSlot struct {
	typ *Type  // scalar type of this leaf
	tag string // innermost element tag enclosing this leaf
}

// Message is the in-memory form of one outgoing SOAP RPC call: an
// operation in a namespace plus parameters. Scalar leaves are stored in
// flat slices indexed in document order; every mutation goes through a
// Set accessor that maintains the leaf's dirty bit.
//
// A Message is not safe for concurrent use.
type Message struct {
	ns string
	op string

	params []Param

	ints    []int32
	doubles []float64
	strs    []string
	bools   []bool
	// slot i of `leaves` describes leaf i; the value lives in the
	// kind-matching flat slice at index `store[i]`.
	leaves []leafSlot
	store  []int
	dirty  []bool
	// ndirty counts the set bits of dirty, so that "nothing changed" is
	// a compare and a diff can stop after the last changed leaf.
	ndirty int

	version   int // bumped on every structural change
	signature string
	sigValid  bool
}

// NewMessage returns an empty message for the given operation element.
func NewMessage(namespace, operation string) *Message {
	return &Message{ns: namespace, op: operation}
}

// Reset empties m into a message of the given operation with no
// parameters, as NewMessage returns, keeping the storage of its
// parameters and leaves for the ones added next. It is a structural
// change.
func (m *Message) Reset(namespace, operation string) {
	clear(m.strs)
	m.ns, m.op = namespace, operation
	m.params = m.params[:0]
	m.ints, m.doubles, m.strs, m.bools = m.ints[:0], m.doubles[:0], m.strs[:0], m.bools[:0]
	m.leaves, m.store, m.dirty, m.ndirty = m.leaves[:0], m.store[:0], m.dirty[:0], 0
	m.bumpStructure()
}

// Namespace returns the operation's namespace URI.
func (m *Message) Namespace() string { return m.ns }

// Operation returns the RPC operation name.
func (m *Message) Operation() string { return m.op }

// Params returns the parameter list. The slice must not be mutated.
func (m *Message) Params() []Param { return m.params }

// Version reports the structural version, bumped by AddX and Resize.
func (m *Message) Version() int { return m.version }

// NumLeaves reports the number of scalar leaves.
func (m *Message) NumLeaves() int { return len(m.leaves) }

// structural mutation helpers -----------------------------------------

func (m *Message) bumpStructure() {
	m.version++
	m.sigValid = false
}

// addLeaf registers one scalar leaf and stores its initial value.
func (m *Message) addLeaf(t *Type, tag string) int {
	idx := len(m.leaves)
	m.leaves = append(m.leaves, leafSlot{typ: t, tag: tag})
	m.dirty = append(m.dirty, false)
	switch t.Kind {
	case Int:
		m.store = append(m.store, len(m.ints))
		m.ints = append(m.ints, 0)
	case Double:
		m.store = append(m.store, len(m.doubles))
		m.doubles = append(m.doubles, 0)
	case String:
		m.store = append(m.store, len(m.strs))
		m.strs = append(m.strs, "")
	case Bool:
		m.store = append(m.store, len(m.bools))
		m.bools = append(m.bools, false)
	default:
		panic("wire: addLeaf of non-scalar")
	}
	return idx
}

// addLeavesForValue registers the leaves of one value of type t, with tag
// as the innermost enclosing element name.
func (m *Message) addLeavesForValue(t *Type, tag string) {
	switch t.Kind {
	case Struct:
		for _, f := range t.Fields {
			m.addLeavesForValue(f.Type, f.Name)
		}
	default:
		m.addLeaf(t, tag)
	}
}

// AddInt appends an int parameter and returns its accessor.
func (m *Message) AddInt(name string, v int32) IntRef {
	m.bumpStructure()
	first := len(m.leaves)
	m.params = append(m.params, Param{Name: name, Type: TInt, Count: 1, First: first})
	m.addLeaf(TInt, name)
	m.ints[m.store[first]] = v
	return IntRef{scalarRef{m: m, p: len(m.params) - 1}}
}

// AddDouble appends a double parameter and returns its accessor.
func (m *Message) AddDouble(name string, v float64) DoubleRef {
	m.bumpStructure()
	first := len(m.leaves)
	m.params = append(m.params, Param{Name: name, Type: TDouble, Count: 1, First: first})
	m.addLeaf(TDouble, name)
	m.doubles[m.store[first]] = v
	return DoubleRef{scalarRef{m: m, p: len(m.params) - 1}}
}

// AddString appends a string parameter and returns its accessor.
func (m *Message) AddString(name string, v string) StringRef {
	m.bumpStructure()
	first := len(m.leaves)
	m.params = append(m.params, Param{Name: name, Type: TString, Count: 1, First: first})
	m.addLeaf(TString, name)
	m.strs[m.store[first]] = v
	return StringRef{scalarRef{m: m, p: len(m.params) - 1}}
}

// AddBool appends a boolean parameter and returns its accessor.
func (m *Message) AddBool(name string, v bool) BoolRef {
	m.bumpStructure()
	first := len(m.leaves)
	m.params = append(m.params, Param{Name: name, Type: TBool, Count: 1, First: first})
	m.addLeaf(TBool, name)
	m.bools[m.store[first]] = v
	return BoolRef{scalarRef{m: m, p: len(m.params) - 1}}
}

// AddStruct appends a struct parameter and returns its accessor.
func (m *Message) AddStruct(name string, t *Type) StructRef {
	if t.Kind != Struct {
		panic("wire: AddStruct with non-struct type " + t.Name)
	}
	m.bumpStructure()
	first := len(m.leaves)
	m.params = append(m.params, Param{Name: name, Type: t, Count: 1, First: first})
	m.addLeavesForValue(t, name)
	return StructRef{m: m, p: len(m.params) - 1}
}

// AddIntArray appends an int-array parameter of n elements.
func (m *Message) AddIntArray(name string, n int) IntArrayRef {
	p := m.addArray(name, TInt, n)
	return IntArrayRef{arrayRef{m: m, p: p}}
}

// AddDoubleArray appends a double-array parameter of n elements.
func (m *Message) AddDoubleArray(name string, n int) DoubleArrayRef {
	p := m.addArray(name, TDouble, n)
	return DoubleArrayRef{arrayRef{m: m, p: p}}
}

// AddStringArray appends a string-array parameter of n elements.
func (m *Message) AddStringArray(name string, n int) StringArrayRef {
	p := m.addArray(name, TString, n)
	return StringArrayRef{arrayRef{m: m, p: p}}
}

// AddStructArray appends an array of struct elements (e.g. MIOs).
func (m *Message) AddStructArray(name string, elem *Type, n int) StructArrayRef {
	if elem.Kind != Struct {
		panic("wire: AddStructArray with non-struct element " + elem.Name)
	}
	p := m.addArray(name, elem, n)
	return StructArrayRef{arrayRef{m: m, p: p}}
}

func (m *Message) addArray(name string, elem *Type, n int) int {
	if uint(n) > math.MaxInt32 {
		panic("wire: array length outside an xsd:int")
	}
	m.bumpStructure()
	first := len(m.leaves)
	// A message Reset for reuse still holds, past its parameters, the
	// array type this place had last: types are immutable, so it serves.
	var t *Type
	if i := len(m.params); i < cap(m.params) {
		if old := m.params[:i+1][i].Type; old != nil && old.Kind == Array && old.Elem == elem {
			t = old
		}
	}
	if t == nil {
		t = ArrayOf(elem)
	}
	m.params = append(m.params, Param{Name: name, Type: t, Count: n, First: first})
	m.reserve(elem, n)
	for i := 0; i < n; i++ {
		m.addLeavesForValue(elem, "item")
	}
	return len(m.params) - 1
}

// reserve makes room for n more values of type t, so that adding them
// grows each slice once instead of by doubling: the element type fixes
// how many leaves of each kind a value has.
func (m *Message) reserve(t *Type, n int) {
	var perKind [Bool + 1]int
	t.countLeaves(&perKind)
	m.ints = slices.Grow(m.ints, n*perKind[Int])
	m.doubles = slices.Grow(m.doubles, n*perKind[Double])
	m.strs = slices.Grow(m.strs, n*perKind[String])
	m.bools = slices.Grow(m.bools, n*perKind[Bool])
	leaves := n * t.leaves
	m.leaves = slices.Grow(m.leaves, leaves)
	m.store = slices.Grow(m.store, leaves)
	m.dirty = slices.Grow(m.dirty, leaves)
}

// ResizeArray changes the element count of the array parameter at index
// pi. It is a structural change: leaf indexes are rebuilt and all dirty
// state cleared (the next send is necessarily a full serialization).
func (m *Message) ResizeArray(pi, n int) {
	if pi < 0 || pi >= len(m.params) || m.params[pi].Type.Kind != Array {
		panic("wire: ResizeArray of non-array parameter")
	}
	if uint(n) > math.MaxInt32 {
		panic("wire: array length outside an xsd:int")
	}
	old := m.params
	type saved struct {
		p     Param
		ints  []int32
		dbls  []float64
		strs  []string
		bools []bool
	}
	snap := make([]saved, len(old))
	for i, p := range old {
		s := saved{p: p}
		count := p.Count
		if i == pi {
			count = min(p.Count, n)
		}
		nLeaves := p.Type.LeavesPerValue() * count
		for l := p.First; l < p.First+nLeaves; l++ {
			switch m.leaves[l].typ.Kind {
			case Int:
				s.ints = append(s.ints, m.ints[m.store[l]])
			case Double:
				s.dbls = append(s.dbls, m.doubles[m.store[l]])
			case String:
				s.strs = append(s.strs, m.strs[m.store[l]])
			case Bool:
				s.bools = append(s.bools, m.bools[m.store[l]])
			}
		}
		snap[i] = s
	}

	// Rebuild from scratch, replaying parameters with preserved values.
	m.params = nil
	m.ints, m.doubles, m.strs, m.bools = nil, nil, nil, nil
	m.leaves, m.store, m.dirty, m.ndirty = nil, nil, nil, 0
	for i, s := range snap {
		count := s.p.Count
		if i == pi {
			count = n
		}
		first := len(m.leaves)
		p := s.p
		p.First = first
		p.Count = count
		m.params = append(m.params, p)
		if p.Type.Kind == Array {
			for e := 0; e < count; e++ {
				m.addLeavesForValue(p.Type.Elem, "item")
			}
		} else {
			m.addLeavesForValue(p.Type, p.Name)
		}
		// Replay saved values in leaf order.
		var ii, di, si, bi int
		nLeaves := len(m.leaves) - first
		for l := first; l < first+nLeaves; l++ {
			switch m.leaves[l].typ.Kind {
			case Int:
				if ii < len(s.ints) {
					m.ints[m.store[l]] = s.ints[ii]
					ii++
				}
			case Double:
				if di < len(s.dbls) {
					m.doubles[m.store[l]] = s.dbls[di]
					di++
				}
			case String:
				if si < len(s.strs) {
					m.strs[m.store[l]] = s.strs[si]
					si++
				}
			case Bool:
				if bi < len(s.bools) {
					m.bools[m.store[l]] = s.bools[bi]
					bi++
				}
			}
		}
	}
	m.bumpStructure()
}

// leaf accessors --------------------------------------------------------

// LeafType returns the scalar type of leaf i.
func (m *Message) LeafType(i int) *Type { return m.leaves[i].typ }

// LeafTag returns the innermost element tag of leaf i.
func (m *Message) LeafTag(i int) string { return m.leaves[i].tag }

// LeafInt returns the value of int leaf i.
func (m *Message) LeafInt(i int) int32 { return m.ints[m.store[i]] }

// LeafDouble returns the value of double leaf i.
func (m *Message) LeafDouble(i int) float64 { return m.doubles[m.store[i]] }

// LeafString returns the value of string leaf i.
func (m *Message) LeafString(i int) string { return m.strs[m.store[i]] }

// LeafBool returns the value of bool leaf i.
func (m *Message) LeafBool(i int) bool { return m.bools[m.store[i]] }

// SetLeafInt sets int leaf i, marking it dirty if the value changed.
func (m *Message) SetLeafInt(i int, v int32) {
	s := m.store[i]
	if m.ints[s] != v {
		m.ints[s] = v
		m.TouchLeaf(i)
	}
}

// SetLeafDouble sets double leaf i, marking it dirty if the value changed.
func (m *Message) SetLeafDouble(i int, v float64) {
	s := m.store[i]
	if m.doubles[s] != v {
		m.doubles[s] = v
		m.TouchLeaf(i)
	}
}

// SetLeafString sets string leaf i, marking it dirty if the value changed.
func (m *Message) SetLeafString(i int, v string) {
	s := m.store[i]
	if m.strs[s] != v {
		m.strs[s] = v
		m.TouchLeaf(i)
	}
}

// SetLeafBool sets bool leaf i, marking it dirty if the value changed.
func (m *Message) SetLeafBool(i int, v bool) {
	s := m.store[i]
	if m.bools[s] != v {
		m.bools[s] = v
		m.TouchLeaf(i)
	}
}

// TouchLeaf forcibly marks leaf i dirty without changing its value. The
// benchmark harness uses it to control re-serialization percentages
// exactly as the paper does (values re-serialized but unchanged in size).
func (m *Message) TouchLeaf(i int) {
	if !m.dirty[i] {
		m.dirty[i] = true
		m.ndirty++
	}
}

// Dirty reports leaf i's dirty bit.
func (m *Message) Dirty(i int) bool { return m.dirty[i] }

// AnyDirty reports whether any leaf is dirty.
func (m *Message) AnyDirty() bool { return m.ndirty > 0 }

// DirtyCount reports the number of dirty leaves.
func (m *Message) DirtyCount() int { return m.ndirty }

// ClearDirty resets every dirty bit; the template layer calls it after a
// successful send.
func (m *Message) ClearDirty() {
	if m.ndirty == 0 {
		return
	}
	for i := range m.dirty {
		m.dirty[i] = false
	}
	m.ndirty = 0
}

// MarkAllDirty sets every dirty bit (used after structure changes and by
// the 100%-re-serialization experiments).
func (m *Message) MarkAllDirty() {
	for i := range m.dirty {
		m.dirty[i] = true
	}
	m.ndirty = len(m.dirty)
}

// Signature returns a canonical description of the message structure:
// operation, parameter names, types and array lengths. Two messages with
// equal signatures are structurally identical (the precondition for the
// paper's structural matches).
func (m *Message) Signature() string {
	if m.sigValid {
		return m.signature
	}
	var b strings.Builder
	b.WriteString(m.ns)
	b.WriteByte('#')
	b.WriteString(m.op)
	for _, p := range m.params {
		fmt.Fprintf(&b, ";%s/", p.Name)
		p.Type.Signature(&b)
		if p.Type.Kind == Array {
			fmt.Fprintf(&b, "*%d", p.Count)
		}
	}
	m.signature = b.String()
	m.sigValid = true
	return m.signature
}
