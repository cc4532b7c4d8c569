package wire

import (
	"testing"

	"bsoap/internal/xsdlex"
)

// mioType builds the paper's Mesh Interface Object: [int, int, double].
func mioType() *Type {
	return StructOf("ns1:MIO",
		Field{Name: "x", Type: TInt},
		Field{Name: "y", Type: TInt},
		Field{Name: "value", Type: TDouble},
	)
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Int: "int", Double: "double", String: "string", Bool: "boolean",
		Struct: "struct", Array: "array",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if !TInt.Kind.Scalar() || Struct.Scalar() || Array.Scalar() {
		t.Error("Scalar() wrong")
	}
}

func TestTypeMaxWidth(t *testing.T) {
	if TInt.MaxWidth() != xsdlex.MaxIntWidth {
		t.Error("int width")
	}
	if TDouble.MaxWidth() != xsdlex.MaxDoubleWidth {
		t.Error("double width")
	}
	if TString.MaxWidth() != 0 {
		t.Error("string width should be unbounded (0)")
	}
	if TBool.MaxWidth() != xsdlex.MaxBoolWidth {
		t.Error("bool width")
	}
}

func TestLeavesPerValue(t *testing.T) {
	mio := mioType()
	if mio.LeavesPerValue() != 3 {
		t.Fatalf("MIO leaves = %d", mio.LeavesPerValue())
	}
	if ArrayOf(mio).LeavesPerValue() != 3 {
		t.Fatalf("MIO array per-element leaves = %d", ArrayOf(mio).LeavesPerValue())
	}
	nested := StructOf("outer", Field{Name: "m", Type: mio}, Field{Name: "n", Type: TInt})
	if nested.LeavesPerValue() != 4 {
		t.Fatalf("nested leaves = %d", nested.LeavesPerValue())
	}
}

func TestStructOfValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StructOf accepted array field")
		}
	}()
	StructOf("bad", Field{Name: "a", Type: ArrayOf(TInt)})
}

func TestArrayOfValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ArrayOf accepted nested array")
		}
	}()
	ArrayOf(ArrayOf(TInt))
}

func TestScalarParams(t *testing.T) {
	m := NewMessage("urn:test", "op")
	i := m.AddInt("count", 5)
	d := m.AddDouble("ratio", 0.5)
	s := m.AddString("name", "abc")
	b := m.AddBool("flag", true)

	if i.Get() != 5 || d.Get() != 0.5 || s.Get() != "abc" || b.Get() != true {
		t.Fatal("initial values wrong")
	}
	if m.AnyDirty() {
		t.Fatal("initial values must not be dirty")
	}
	i.Set(6)
	d.Set(0.25)
	s.Set("xyz")
	b.Set(false)
	if i.Get() != 6 || d.Get() != 0.25 || s.Get() != "xyz" || b.Get() != false {
		t.Fatal("updated values wrong")
	}
	if m.DirtyCount() != 4 {
		t.Fatalf("DirtyCount = %d, want 4", m.DirtyCount())
	}
}

func TestSetSameValueStaysClean(t *testing.T) {
	m := NewMessage("urn:test", "op")
	d := m.AddDouble("v", 1.5)
	d.Set(1.5)
	if m.AnyDirty() {
		t.Fatal("setting an identical value marked dirty")
	}
	arr := m.AddIntArray("a", 3)
	arr.Set(1, 0) // zero onto zero
	if m.AnyDirty() {
		t.Fatal("identical array write marked dirty")
	}
}

func TestClearAndMarkDirty(t *testing.T) {
	m := NewMessage("urn:test", "op")
	arr := m.AddDoubleArray("a", 10)
	arr.Set(3, 7)
	if !m.Dirty(arr.LeafIndex(3)) {
		t.Fatal("leaf 3 not dirty")
	}
	m.ClearDirty()
	if m.AnyDirty() {
		t.Fatal("ClearDirty left dirt")
	}
	m.MarkAllDirty()
	if m.DirtyCount() != m.NumLeaves() {
		t.Fatal("MarkAllDirty incomplete")
	}
	m.TouchLeaf(0)
	if !m.Dirty(0) {
		t.Fatal("TouchLeaf failed")
	}
}

func TestDoubleArray(t *testing.T) {
	m := NewMessage("urn:test", "send")
	arr := m.AddDoubleArray("values", 100)
	if arr.Len() != 100 || m.NumLeaves() != 100 {
		t.Fatalf("Len=%d leaves=%d", arr.Len(), m.NumLeaves())
	}
	for i := 0; i < 100; i++ {
		arr.Set(i, float64(i)/2)
	}
	for i := 0; i < 100; i++ {
		if arr.Get(i) != float64(i)/2 {
			t.Fatalf("element %d = %g", i, arr.Get(i))
		}
	}
}

func TestStructArrayMIO(t *testing.T) {
	m := NewMessage("urn:test", "sendMIOs")
	arr := m.AddStructArray("mios", mioType(), 10)
	if m.NumLeaves() != 30 {
		t.Fatalf("leaves = %d", m.NumLeaves())
	}
	for i := 0; i < 10; i++ {
		arr.SetInt(i, 0, int32(i))
		arr.SetInt(i, 1, int32(2*i))
		arr.SetDouble(i, 2, float64(i)+0.5)
	}
	for i := 0; i < 10; i++ {
		if arr.Int(i, 0) != int32(i) || arr.Int(i, 1) != int32(2*i) || arr.Double(i, 2) != float64(i)+0.5 {
			t.Fatalf("MIO %d = (%d,%d,%g)", i, arr.Int(i, 0), arr.Int(i, 1), arr.Double(i, 2))
		}
	}
	// Leaf types are in declaration order per element.
	if m.LeafType(0) != TInt || m.LeafType(2) != TDouble {
		t.Fatal("leaf types wrong")
	}
	if m.LeafTag(0) != "x" || m.LeafTag(2) != "value" {
		t.Fatalf("leaf tags: %q %q", m.LeafTag(0), m.LeafTag(2))
	}
}

func TestArrayIndexOutOfRangePanics(t *testing.T) {
	m := NewMessage("urn:test", "op")
	arr := m.AddIntArray("a", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	arr.Set(3, 1)
}

func TestSignatureStability(t *testing.T) {
	build := func() *Message {
		m := NewMessage("urn:test", "op")
		m.AddInt("n", 1)
		m.AddDoubleArray("v", 50)
		return m
	}
	a, b := build(), build()
	if a.Signature() != b.Signature() {
		t.Fatalf("structurally identical messages differ:\n%s\n%s", a.Signature(), b.Signature())
	}
	// Value changes must not affect the signature.
	sig := a.Signature()
	m := build()
	m.Params()
	arr := m.AddDoubleArray("w", 1)
	_ = arr
	if m.Signature() == sig {
		t.Fatal("different structures share a signature")
	}
}

func TestSignatureDependsOnArrayLength(t *testing.T) {
	m1 := NewMessage("urn:test", "op")
	m1.AddDoubleArray("v", 50)
	m2 := NewMessage("urn:test", "op")
	m2.AddDoubleArray("v", 51)
	if m1.Signature() == m2.Signature() {
		t.Fatal("array length not part of signature")
	}
}

func TestSignatureDependsOnOpAndNamespace(t *testing.T) {
	m1 := NewMessage("urn:a", "op")
	m2 := NewMessage("urn:b", "op")
	m3 := NewMessage("urn:a", "op2")
	if m1.Signature() == m2.Signature() || m1.Signature() == m3.Signature() {
		t.Fatal("namespace/op not part of signature")
	}
}

func TestResizeArrayPreservesPrefix(t *testing.T) {
	m := NewMessage("urn:test", "op")
	n := m.AddInt("n", 7)
	arr := m.AddDoubleArray("v", 5)
	tail := m.AddString("tail", "end")
	for i := 0; i < 5; i++ {
		arr.Set(i, float64(i))
	}
	v0 := m.Version()
	arr.Resize(8)
	if m.Version() == v0 {
		t.Fatal("resize did not bump version")
	}
	if arr.Len() != 8 {
		t.Fatalf("Len after grow = %d", arr.Len())
	}
	for i := 0; i < 5; i++ {
		if arr.Get(i) != float64(i) {
			t.Fatalf("element %d lost: %g", i, arr.Get(i))
		}
	}
	for i := 5; i < 8; i++ {
		if arr.Get(i) != 0 {
			t.Fatalf("new element %d = %g, want 0", i, arr.Get(i))
		}
	}
	if n.Get() != 7 {
		t.Fatalf("scalar before array corrupted: %d", n.Get())
	}
	if tail.Get() != "end" {
		t.Fatalf("param after array corrupted: %q", tail.Get())
	}

	arr.Resize(2)
	if arr.Len() != 2 || arr.Get(1) != 1 {
		t.Fatalf("shrink lost data: len=%d v=%g", arr.Len(), arr.Get(1))
	}
	if tail.Get() != "end" {
		t.Fatal("param after array corrupted by shrink")
	}
}

func TestResizeChangesSignature(t *testing.T) {
	m := NewMessage("urn:test", "op")
	arr := m.AddDoubleArray("v", 5)
	s1 := m.Signature()
	arr.Resize(6)
	if m.Signature() == s1 {
		t.Fatal("signature unchanged after resize")
	}
}

func TestMIOStructParam(t *testing.T) {
	m := NewMessage("urn:test", "op")
	s := m.AddStruct("point", mioType())
	s.SetInt(0, 3)
	s.SetInt(1, 4)
	s.SetDouble(2, 5.5)
	if s.Int(0) != 3 || s.Int(1) != 4 || s.Double(2) != 5.5 {
		t.Fatal("struct field round trip failed")
	}
	if m.DirtyCount() != 3 {
		t.Fatalf("DirtyCount = %d", m.DirtyCount())
	}
}

func TestStringArray(t *testing.T) {
	m := NewMessage("urn:test", "op")
	arr := m.AddStringArray("names", 3)
	arr.Set(0, "a")
	arr.Set(2, "c")
	if arr.Get(0) != "a" || arr.Get(1) != "" || arr.Get(2) != "c" {
		t.Fatal("string array round trip failed")
	}
}

func TestFillHelpers(t *testing.T) {
	m := NewMessage("urn:test", "op")
	da := m.AddDoubleArray("d", 3)
	ia := m.AddIntArray("i", 3)
	da.Fill([]float64{1, 2, 3})
	ia.Fill([]int32{4, 5, 6})
	if da.Get(2) != 3 || ia.Get(0) != 4 {
		t.Fatal("Fill failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fill accepted wrong length")
		}
	}()
	da.Fill([]float64{1})
}

// TestResetRebuildsAsNew builds a message, Resets it to another
// operation and builds a second shape into it: it reads exactly as the
// same shape built into a new message, with zero values, no dirty bit
// and a structural version past every one it had.
func TestResetRebuildsAsNew(t *testing.T) {
	mio := mioType()
	build := func(m *Message, n int) {
		m.AddString("s", "")
		m.AddStructArray("mios", mio, n)
		m.AddDoubleArray("v", n+1)
	}
	m := NewMessage("urn:a", "first")
	build(m, 5)
	m.AddStringArray("tags", 2).Set(1, "kept?")
	m.AddInt("i", 7)
	m.MarkAllDirty()
	sig, version := m.Signature(), m.Version()

	m.Reset("urn:b", "second")
	if m.NumLeaves() != 0 || len(m.Params()) != 0 || m.AnyDirty() || m.Version() <= version || m.Signature() == sig {
		t.Fatalf("after Reset: %d leaves, %d params, dirty %v, version %d (was %d), signature %q",
			m.NumLeaves(), len(m.Params()), m.AnyDirty(), m.Version(), version, m.Signature())
	}
	build(m, 3)
	want := NewMessage("urn:b", "second")
	build(want, 3)
	if m.Signature() != want.Signature() || m.NumLeaves() != want.NumLeaves() {
		t.Fatalf("rebuilt %q (%d leaves), want %q (%d)", m.Signature(), m.NumLeaves(), want.Signature(), want.NumLeaves())
	}
	for i := 0; i < want.NumLeaves(); i++ {
		if m.LeafType(i) != want.LeafType(i) || m.LeafTag(i) != want.LeafTag(i) || m.Dirty(i) {
			t.Fatalf("leaf %d: %s <%s> dirty %v, want %s <%s>", i, m.LeafType(i).Name, m.LeafTag(i), m.Dirty(i), want.LeafType(i).Name, want.LeafTag(i))
		}
		switch want.LeafType(i).Kind {
		case Int:
			if m.LeafInt(i) != 0 {
				t.Fatalf("leaf %d: %d", i, m.LeafInt(i))
			}
		case Double:
			if m.LeafDouble(i) != 0 {
				t.Fatalf("leaf %d: %g", i, m.LeafDouble(i))
			}
		case String:
			if m.LeafString(i) != "" {
				t.Fatalf("leaf %d: %q", i, m.LeafString(i))
			}
		}
	}
	for i, p := range m.Params() {
		if w := want.Params()[i]; p.Name != w.Name || p.Count != w.Count || p.First != w.First || p.Type.Name != w.Type.Name || p.Type.Elem != w.Type.Elem {
			t.Fatalf("param %d: %+v, want %+v", i, p, w)
		}
	}
}
