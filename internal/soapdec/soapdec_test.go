package soapdec

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"bsoap/internal/baseline"
	"bsoap/internal/wire"
)

func mioType() *wire.Type {
	return wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "y", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
}

// schemaFor builds the schema matching a message's current shape.
func schemaFor(m *wire.Message) *Schema {
	s := &Schema{Namespace: m.Namespace(), Op: m.Operation()}
	for _, p := range m.Params() {
		s.Params = append(s.Params, ParamSpec{Name: p.Name, Type: p.Type})
	}
	return s
}

// decodeRoundTrip serializes m with the gSOAP-like baseline and decodes
// it back, comparing every leaf.
func decodeRoundTrip(t *testing.T, m *wire.Message, record bool) *Result {
	t.Helper()
	doc := new(baseline.GSOAPLike).Serialize(m)
	schema := schemaFor(m)
	res, err := Decode(doc, func(op string) (*Schema, bool) {
		if op == schema.Op {
			return schema, true
		}
		return nil, false
	}, record)
	if err != nil {
		t.Fatalf("Decode: %v\ndoc: %.800s", err, doc)
	}
	got := res.Msg
	if got.NumLeaves() != m.NumLeaves() {
		t.Fatalf("decoded %d leaves, want %d", got.NumLeaves(), m.NumLeaves())
	}
	for i := 0; i < m.NumLeaves(); i++ {
		switch m.LeafType(i).Kind {
		case wire.Int:
			if got.LeafInt(i) != m.LeafInt(i) {
				t.Fatalf("leaf %d: %d != %d", i, got.LeafInt(i), m.LeafInt(i))
			}
		case wire.Double:
			gv, wv := got.LeafDouble(i), m.LeafDouble(i)
			if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("leaf %d: %g != %g", i, gv, wv)
			}
		case wire.String:
			if got.LeafString(i) != m.LeafString(i) {
				t.Fatalf("leaf %d: %q != %q", i, got.LeafString(i), m.LeafString(i))
			}
		case wire.Bool:
			if got.LeafBool(i) != m.LeafBool(i) {
				t.Fatalf("leaf %d: %v != %v", i, got.LeafBool(i), m.LeafBool(i))
			}
		}
	}
	return res
}

func TestDecodeScalars(t *testing.T) {
	m := wire.NewMessage("urn:dec", "scalars")
	m.AddInt("i", -123)
	m.AddDouble("d", 3.25)
	m.AddString("s", "hello <world> & co")
	m.AddBool("b", true)
	decodeRoundTrip(t, m, false)
}

func TestDecodeDoubleArray(t *testing.T) {
	m := wire.NewMessage("urn:dec", "arr")
	a := m.AddDoubleArray("v", 100)
	for i := 0; i < 100; i++ {
		a.Set(i, float64(i)*0.5)
	}
	decodeRoundTrip(t, m, false)
}

func TestDecodeMIOArray(t *testing.T) {
	m := wire.NewMessage("urn:dec", "mios")
	a := m.AddStructArray("m", mioType(), 20)
	for i := 0; i < 20; i++ {
		a.SetInt(i, 0, int32(i))
		a.SetInt(i, 1, int32(-i))
		a.SetDouble(i, 2, float64(i)+0.5)
	}
	decodeRoundTrip(t, m, false)
}

func TestDecodeStructParam(t *testing.T) {
	m := wire.NewMessage("urn:dec", "one")
	s := m.AddStruct("point", mioType())
	s.SetInt(0, 7)
	s.SetInt(1, 8)
	s.SetDouble(2, 9.5)
	decodeRoundTrip(t, m, false)
}

func TestDecodeSpecialDoubles(t *testing.T) {
	m := wire.NewMessage("urn:dec", "spec")
	a := m.AddDoubleArray("v", 3)
	a.Set(0, math.Inf(1))
	a.Set(1, math.Inf(-1))
	a.Set(2, math.NaN())
	decodeRoundTrip(t, m, false)
}

func TestDecodeEmptyArray(t *testing.T) {
	m := wire.NewMessage("urn:dec", "empty")
	m.AddDoubleArray("v", 0)
	decodeRoundTrip(t, m, false)
}

func TestRangesCoverEveryLeaf(t *testing.T) {
	m := wire.NewMessage("urn:dec", "mios")
	a := m.AddStructArray("m", mioType(), 5)
	for i := 0; i < 5; i++ {
		a.SetDouble(i, 2, 1.5)
	}
	doc := new(baseline.GSOAPLike).Serialize(m)
	res := decodeRoundTrip(t, m, true)
	if len(res.Ranges) != m.NumLeaves() {
		t.Fatalf("ranges = %d, leaves = %d", len(res.Ranges), m.NumLeaves())
	}
	prev := 0
	for i, r := range res.Ranges {
		start, end := int(r.Start), int(r.End)
		if start < prev || end < start || end > len(doc) {
			t.Fatalf("range %d = %+v out of order (prev end %d, len %d)", i, r, prev, len(doc))
		}
		// Each region must start with the value and contain the close tag.
		seg := string(doc[start:end])
		if !strings.Contains(seg, "</") {
			t.Fatalf("range %d (%q) missing closing tag", i, seg)
		}
		prev = end
	}
}

func TestDecodeUnknownOperation(t *testing.T) {
	m := wire.NewMessage("urn:dec", "mystery")
	m.AddInt("x", 1)
	doc := new(baseline.GSOAPLike).Serialize(m)
	_, err := Decode(doc, func(string) (*Schema, bool) { return nil, false }, false)
	if err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeMalformedEnvelopes(t *testing.T) {
	schema := &Schema{Namespace: "urn:x", Op: "op", Params: []ParamSpec{{Name: "v", Type: wire.TInt}}}
	lookup := func(string) (*Schema, bool) { return schema, true }
	for name, doc := range map[string]string{
		"not xml":          "garbage",
		"no body":          `<SOAP-ENV:Envelope><Other/></SOAP-ENV:Envelope>`,
		"wrong param name": `<E:Envelope><E:Body><ns1:op><w>1</w></ns1:op></E:Body></E:Envelope>`,
		"bad int":          `<E:Envelope><E:Body><ns1:op><v>xyz</v></ns1:op></E:Body></E:Envelope>`,
		"truncated":        `<E:Envelope><E:Body><ns1:op><v>1</v>`,
	} {
		if _, err := Decode([]byte(doc), lookup, false); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecodeSkipsSOAPHeader(t *testing.T) {
	doc := `<E:Envelope xmlns:E="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<E:Header><routing>x</routing></E:Header>` +
		`<E:Body><ns1:op><v>42</v></ns1:op></E:Body></E:Envelope>`
	schema := &Schema{Namespace: "urn:x", Op: "op", Params: []ParamSpec{{Name: "v", Type: wire.TInt}}}
	res, err := Decode([]byte(doc), func(string) (*Schema, bool) { return schema, true }, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.LeafInt(0) != 42 {
		t.Fatalf("leaf = %d", res.Msg.LeafInt(0))
	}
}

func TestDecodeBadArrayType(t *testing.T) {
	schema := &Schema{Namespace: "urn:x", Op: "op",
		Params: []ParamSpec{{Name: "v", Type: wire.ArrayOf(wire.TInt)}}}
	lookup := func(string) (*Schema, bool) { return schema, true }
	for name, attr := range map[string]string{
		"missing":   ``,
		"malformed": ` SOAP-ENC:arrayType="xsd:int"`,
		"negative":  ` SOAP-ENC:arrayType="xsd:int[-2]"`,
		"nonnum":    ` SOAP-ENC:arrayType="xsd:int[x]"`,
		// A count the body cannot hold: refused, not allocated.
		"oversized": ` SOAP-ENC:arrayType="xsd:int[999999999]"`,
	} {
		doc := `<E:Envelope><E:Body><ns1:op><v` + attr + `></v></ns1:op></E:Body></E:Envelope>`
		if _, err := Decode([]byte(doc), lookup, false); err == nil {
			t.Errorf("%s arrayType: decoded without error", name)
		}
	}
}

// TestArrayLengthBoundedByElementSize: the message makes every leaf slot
// of a claimed array before it reads the first item, so the claim is
// checked against the least the items could occupy — a struct element's
// own tags and one empty element per field, not the seven bytes of
// <item/>.
func TestArrayLengthBoundedByElementSize(t *testing.T) {
	pair := wire.StructOf("ns1:Pair",
		wire.Field{Name: "a", Type: wire.TString},
		wire.Field{Name: "b", Type: wire.TString})
	for _, c := range []struct {
		name string
		elem *wire.Type
		min  int
	}{
		{"scalar", wire.TInt, len("<item/>")},
		{"MIO", mioType(), len("<item><x/><y/><value/></item>")},
		{"Pair", pair, len("<item><a/><b/></item>")},
	} {
		if got := minEncoded(c.elem, "item"); got != c.min {
			t.Errorf("minEncoded(%s) = %d, want %d", c.name, got, c.min)
		}
	}

	decode := func(elem *wire.Type, n int, items string) (*Result, error) {
		schema := &Schema{Namespace: "urn:x", Op: "op",
			Params: []ParamSpec{{Name: "v", Type: wire.ArrayOf(elem)}}}
		doc := `<E:Envelope><E:Body><ns1:op><v e:arrayType="` + elem.Name + `[` + strconv.Itoa(n) + `]">` +
			items + `</v></ns1:op></E:Body></E:Envelope>`
		return Decode([]byte(doc), func(string) (*Schema, bool) { return schema, true }, true)
	}

	// A claim of n MIOs over 10 body bytes each: within the old bound of
	// 7 a claimed item, and 900 000 leaf slots if it were believed.
	const n = 300_000
	padding := strings.Repeat(" ", 10*n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decode(mioType(), n, padding)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds the body") {
		t.Fatalf("MIO[%d] over %d bytes: err = %v, want the length refused", n, len(padding), err)
	}
	// The document itself is 3 MB; the slots would have been 50 MB more.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("refusing the claim allocated %d bytes: leaves were added first", grew)
	}

	// The fullest honest body — every item at its type's minimum, nothing
	// between them — is still accepted.
	res, err := decode(pair, 1000, strings.Repeat("<item><a/><b/></item>", 1000))
	if err != nil || res.Msg.NumLeaves() != 2000 || len(res.Ranges) != 2000 {
		t.Fatalf("maximal honest body: %v", err)
	}
	// One more claimed than that body holds is not.
	if _, err := decode(pair, 1003, strings.Repeat("<item><a/><b/></item>", 1000)); err == nil {
		t.Fatal("claim beyond the body's items accepted")
	}
}

func TestDecodeRespectsStuffedPadding(t *testing.T) {
	// Messages from a stuffing client carry whitespace after close tags.
	doc := `<E:Envelope><E:Body><ns1:op>` +
		`<v xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[2]">` +
		`<item>1.5</item>        <item>2.5</item>     ` +
		`</v></ns1:op></E:Body></E:Envelope>`
	schema := &Schema{Namespace: "urn:x", Op: "op",
		Params: []ParamSpec{{Name: "v", Type: wire.ArrayOf(wire.TDouble)}}}
	res, err := Decode([]byte(doc), func(string) (*Schema, bool) { return schema, true }, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.LeafDouble(0) != 1.5 || res.Msg.LeafDouble(1) != 2.5 {
		t.Fatalf("values: %g %g", res.Msg.LeafDouble(0), res.Msg.LeafDouble(1))
	}
	// The first leaf's region must absorb the padding after its tag.
	seg := doc[res.Ranges[0].Start:res.Ranges[0].End]
	if seg != "1.5</item>        " {
		t.Fatalf("region = %q", seg)
	}
}

func TestDecodeNestedStructs(t *testing.T) {
	inner := wire.StructOf("ns1:Point",
		wire.Field{Name: "px", Type: wire.TInt},
		wire.Field{Name: "py", Type: wire.TInt},
	)
	outer := wire.StructOf("ns1:Segment",
		wire.Field{Name: "a", Type: inner},
		wire.Field{Name: "b", Type: inner},
		wire.Field{Name: "weight", Type: wire.TDouble},
	)
	m := wire.NewMessage("urn:dec", "nest")
	arr := m.AddStructArray("segs", outer, 3)
	for i := 0; i < 3; i++ {
		arr.SetInt(i, 0, int32(i))
		arr.SetInt(i, 1, int32(i+1))
		arr.SetInt(i, 2, int32(i+2))
		arr.SetInt(i, 3, int32(i+3))
		arr.SetDouble(i, 4, float64(i)+0.5)
	}
	decodeRoundTrip(t, m, true)
}

func TestDecodeBoolAndStringArrays(t *testing.T) {
	m := wire.NewMessage("urn:dec", "mixed")
	sa := m.AddStringArray("names", 3)
	sa.Set(0, "first value")
	sa.Set(2, "third <escaped> & co")
	m.AddBool("flag", true)
	ia := m.AddIntArray("nums", 4)
	ia.Fill([]int32{1, -2, 3, -4})
	decodeRoundTrip(t, m, false)
}

func TestDecodeWrongFieldOrderErrors(t *testing.T) {
	schema := &Schema{Namespace: "urn:x", Op: "op", Params: []ParamSpec{
		{Name: "m", Type: mioType()},
	}}
	lookup := func(string) (*Schema, bool) { return schema, true }
	// Fields out of declaration order must be rejected by the
	// schema-driven decoder.
	doc := `<E:Envelope><E:Body><ns1:op><m><y>1</y><x>2</x><value>3</value></m></ns1:op></E:Body></E:Envelope>`
	if _, err := Decode([]byte(doc), lookup, false); err == nil {
		t.Fatal("out-of-order fields accepted")
	}
	// Non-item array children are rejected too.
	schema2 := &Schema{Namespace: "urn:x", Op: "op", Params: []ParamSpec{
		{Name: "v", Type: wire.ArrayOf(wire.TInt)},
	}}
	doc2 := `<E:Envelope><E:Body><ns1:op><v SOAP-ENC:arrayType="xsd:int[1]"><other>1</other></v></ns1:op></E:Body></E:Envelope>`
	if _, err := Decode([]byte(doc2), func(string) (*Schema, bool) { return schema2, true }, false); err == nil {
		t.Fatal("non-item array child accepted")
	}
}

// TestSetLeafBytes covers the re-lex entry point: each kind parsed from
// body bytes as the full parse would read them, entities resolved for
// strings only, and a leaf left alone when its text does not lex.
func TestSetLeafBytes(t *testing.T) {
	m := wire.NewMessage("urn:dec", "scalars")
	m.AddInt("i", 1)
	m.AddDouble("d", 1)
	m.AddString("s", "x")
	m.AddBool("b", false)
	for leaf, raw := range []string{" -42\n", "\t-INF ", " a &lt; b&#33; ", "1"} {
		if err := SetLeafBytes(m, leaf, []byte(raw)); err != nil {
			t.Fatalf("leaf %d %q: %v", leaf, raw, err)
		}
	}
	if m.LeafInt(0) != -42 || !math.IsInf(m.LeafDouble(1), -1) || m.LeafString(2) != " a < b! " || !m.LeafBool(3) {
		t.Fatalf("leaves = %d %g %q %v", m.LeafInt(0), m.LeafDouble(1), m.LeafString(2), m.LeafBool(3))
	}
	for leaf, raw := range []string{"&#52;2", "1e", "&bogus;", "yes"} {
		if err := SetLeafBytes(m, leaf, []byte(raw)); err == nil {
			t.Fatalf("leaf %d accepted %q", leaf, raw)
		}
	}
	if m.LeafInt(0) != -42 || !math.IsInf(m.LeafDouble(1), -1) || m.LeafString(2) != " a < b! " || !m.LeafBool(3) {
		t.Fatal("a refused value changed its leaf")
	}
}

// TestDoubleLexicalSpace pins the xsd:double grammar on both entry points:
// the forms strconv.ParseFloat reads beyond it are errors, the optional
// parts of the grammar are not, and a value past the largest double is a
// range error, not an infinity.
func TestDoubleLexicalSpace(t *testing.T) {
	schema := &Schema{Namespace: "urn:dec", Op: "one", Params: []ParamSpec{{Name: "d", Type: wire.TDouble}}}
	lookup := func(string) (*Schema, bool) { return schema, true }
	decode := func(text string) (float64, error) {
		doc := `<E:Envelope><E:Body><ns1:one><d>` + text + `</d></ns1:one></E:Body></E:Envelope>`
		res, err := Decode([]byte(doc), lookup, false)
		if err != nil {
			return 0, err
		}
		return res.Msg.LeafDouble(0), nil
	}
	relex := func(text string) (float64, error) {
		m := wire.NewMessage("urn:dec", "one")
		m.AddDouble("d", 0)
		err := SetLeafBytes(m, 0, []byte(text))
		return m.LeafDouble(0), err
	}
	for name, parse := range map[string]func(string) (float64, error){"Decode": decode, "SetLeafBytes": relex} {
		for _, text := range []string{"0x1p-2", "Infinity", "inf", "nan", "NAN", "1_0"} {
			if v, err := parse(text); err == nil {
				t.Errorf("%s read %q as the double %v", name, text, v)
			}
		}
		for text, want := range map[string]float64{".5": 0.5, "5.": 5, "+1.5": 1.5, "1e5": 1e5, "+INF": math.Inf(1), " -2.5E-3\n": -0.0025} {
			if v, err := parse(text); err != nil || v != want {
				t.Errorf("%s(%q) = %v, %v; want %v", name, text, v, err, want)
			}
		}
		if v, err := parse("1E+400"); !errors.Is(err, strconv.ErrRange) {
			t.Errorf("%s(1E+400) = %v, %v; want a range error", name, v, err)
		}
	}
}

// TestIntRange pins the xsd:int range on both entry points: the two limits
// are values, one past either is a range error, and so are a limit's digits
// with more digits after them.
func TestIntRange(t *testing.T) {
	schema := &Schema{Namespace: "urn:dec", Op: "one", Params: []ParamSpec{{Name: "i", Type: wire.TInt}}}
	lookup := func(string) (*Schema, bool) { return schema, true }
	decode := func(text string) (int32, error) {
		doc := `<E:Envelope><E:Body><ns1:one><i>` + text + `</i></ns1:one></E:Body></E:Envelope>`
		res, err := Decode([]byte(doc), lookup, false)
		if err != nil {
			return 0, err
		}
		return res.Msg.LeafInt(0), nil
	}
	relex := func(text string) (int32, error) {
		m := wire.NewMessage("urn:dec", "one")
		m.AddInt("i", 0)
		err := SetLeafBytes(m, 0, []byte(text))
		return m.LeafInt(0), err
	}
	for name, parse := range map[string]func(string) (int32, error){"Decode": decode, "SetLeafBytes": relex} {
		for text, want := range map[string]int32{"2147483647": math.MaxInt32, "-2147483648": math.MinInt32, " -0002147483648\n": math.MinInt32} {
			if v, err := parse(text); err != nil || v != want {
				t.Errorf("%s(%q) = %v, %v; want %v", name, text, v, err, want)
			}
		}
		for _, text := range []string{"2147483648", "-2147483649", "-21474836480", "-214748364800000", "21474836480"} {
			if v, err := parse(text); !errors.Is(err, strconv.ErrRange) {
				t.Errorf("%s(%q) = %v, %v; want a range error", name, text, v, err)
			}
		}
	}
}

// TestLeafRangeLayout pins a leaf range at 8 bytes: two uint32 offsets.
func TestLeafRangeLayout(t *testing.T) {
	if got := unsafe.Sizeof(LeafRange{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(LeafRange{}) = %d, want 8", got)
	}
}
