package soapenv

import (
	"math"
	"strings"
	"testing"

	"bsoap/internal/fastconv"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
)

func TestEnvelopeRoundTrips(t *testing.T) {
	m := wire.NewMessage("urn:app", "op")
	m.AddInt("v", 42)
	doc := new(Compiler).AppendMessage(nil, m, 0)
	p := xmlparse.NewParser(doc)
	if _, err := p.ExpectStart("Envelope"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExpectStart("Body"); err != nil {
		t.Fatal(err)
	}
	tok, err := p.ExpectStart("op")
	if err != nil || string(tok.Name) != "ns1:op" {
		t.Fatalf("op: %+v, %v", tok, err)
	}
	if _, err := p.ExpectStart("v"); err != nil {
		t.Fatal(err)
	}
	text, err := p.Text()
	if err != nil || string(text) != "42" {
		t.Fatalf("text %q, %v", text, err)
	}
}

// TestEnvelopeDeclaresWhatItUses pins the envelope rule: no XML
// declaration, no white space between elements, SOAP-ENV and ns1
// always, and SOAP-ENC, xsi and xsd only for a message whose parameters
// write them.
func TestEnvelopeDeclaresWhatItUses(t *testing.T) {
	elem := wire.StructOf("ns1:El", wire.Field{Name: "a", Type: wire.TInt})
	cases := []struct {
		name          string
		add           func(m *wire.Message)
		enc, xsi, xsd bool
	}{
		{"none", func(*wire.Message) {}, false, false, false},
		{"scalar", func(m *wire.Message) { m.AddInt("v", 1) }, false, true, true},
		{"struct", func(m *wire.Message) { m.AddStruct("p", elem) }, false, true, false},
		{"array", func(m *wire.Message) { m.AddDoubleArray("v", 2) }, true, true, true},
		{"struct array", func(m *wire.Message) { m.AddStructArray("v", elem, 2) }, true, true, false},
		{"struct and scalar", func(m *wire.Message) { m.AddStruct("p", elem); m.AddBool("b", true) }, false, true, true},
	}
	for _, c := range cases {
		m := wire.NewMessage("urn:app", "op")
		c.add(m)
		env := EnvelopeStart(m)
		want := `<SOAP-ENV:Envelope xmlns:SOAP-ENV="` + nsEnvelope + `"`
		if c.enc {
			want += ` xmlns:SOAP-ENC="` + nsEncoding + `"`
		}
		if c.xsi {
			want += ` xmlns:xsi="` + nsXSI + `"`
		}
		if c.xsd {
			want += ` xmlns:xsd="` + nsXSD + `"`
		}
		want += ` xmlns:ns1="urn:app"><SOAP-ENV:Body>`
		if env != want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, env, want)
		}
		doc := new(Compiler).AppendMessage(nil, m, 0)
		if !strings.HasPrefix(string(doc), want) || !strings.HasSuffix(string(doc), EnvelopeEnd) || strings.ContainsAny(string(doc), "\n?") {
			t.Errorf("%s: document %s", c.name, doc)
		}
	}
}

// TestAppendMessageFraming renders one parameter of each kind and checks
// the document byte for byte, with doubles printed the same by both
// converters.
func TestAppendMessageFraming(t *testing.T) {
	m := wire.NewMessage("urn:app", "op")
	m.AddInt("n", -7)
	m.AddDouble("x", 0.1)
	m.AddString("s", "a<b")
	arr := m.AddDoubleArray("vals", 2)
	arr.Set(0, 1.5)
	arr.Set(1, math.Inf(-1))
	want := EnvelopeStart(m) + `<ns1:op>` +
		`<n xsi:type="xsd:int">-7</n>` +
		`<x xsi:type="xsd:double">0.1</x>` +
		`<s xsi:type="xsd:string">a&lt;b</s>` +
		`<vals xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[2]"><item>1.5</item><item>-INF</item></vals>` +
		`</ns1:op>` + EnvelopeEnd
	var c Compiler
	for _, conv := range []fastconv.Converter{0, fastconv.Dragon} {
		if got := string(c.AppendMessage(nil, m, conv)); got != want {
			t.Errorf("converter %d:\n got %s\nwant %s", conv, got, want)
		}
	}
}

// TestParamSteps pins what a struct array compiles to: its arrayType
// open tag, one item's steps — markup-only steps for the item and the
// inner struct, a leaf step per field whose Lit and Close are exactly
// its tags — its close tag and its length.
func TestParamSteps(t *testing.T) {
	inner := wire.StructOf("ns1:In", wire.Field{Name: "b", Type: wire.TBool})
	elem := wire.StructOf("ns1:El", wire.Field{Name: "a", Type: wire.TInt}, wire.Field{Name: "in", Type: inner})
	m := wire.NewMessage("urn:app", "op")
	m.AddStructArray("xs", elem, 3)
	var c Compiler
	open, steps, end, n := c.Param(&m.Params()[0])
	if string(open) != `<xs xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="ns1:El[3]">` || string(end) != `</xs>` || n != 3 {
		t.Fatalf("framing %q … %q × %d", open, end, n)
	}
	var got []string
	for _, st := range steps {
		s := string(st.Lit)
		if st.Leaf != nil {
			s += "[" + st.Leaf.Name + "]" + string(st.Close)
		}
		got = append(got, s)
	}
	want := []string{"<item>", "<a>[xsd:int]</a>", "<in>", "<b>[xsd:boolean]</b>", "</in>", "</item>"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("steps %q, want %q", got, want)
	}
	head, tail := c.Operation(m)
	if string(head) != EnvelopeStart(m)+"<ns1:op>" || string(tail) != "</ns1:op>"+EnvelopeEnd {
		t.Fatalf("operation framing %q … %q", head, tail)
	}
}
