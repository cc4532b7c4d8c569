package diffdeser

import (
	"net"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

// stuffedClient builds a bSOAP stub with max-width stuffing so repeated
// sends keep a constant message length — the shape differential
// deserialization exploits.
type captureSink struct{ data []byte }

func (c *captureSink) Send(bufs net.Buffers) error {
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

func testSchema(m *wire.Message) soapdec.Lookup {
	s := &soapdec.Schema{Namespace: m.Namespace(), Op: m.Operation()}
	for _, p := range m.Params() {
		s.Params = append(s.Params, soapdec.ParamSpec{Name: p.Name, Type: p.Type})
	}
	return func(op string) (*soapdec.Schema, bool) {
		if op == s.Op {
			return s, true
		}
		return nil, false
	}
}

func TestFirstDecodeIsFullParse(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 10)
	for i := 0; i < 10; i++ {
		arr.Set(i, float64(i))
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	d := New(testSchema(m))
	msg, info, err := d.Decode("send", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FullParse {
		t.Fatal("first decode must be a full parse")
	}
	if msg.LeafDouble(3) != 3 {
		t.Fatalf("leaf 3 = %g", msg.LeafDouble(3))
	}
	if d.TemplateCount() != 1 {
		t.Fatalf("templates = %d", d.TemplateCount())
	}
}

func TestIdenticalResendSkipsParsing(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 50)
	for i := 0; i < 50; i++ {
		arr.Set(i, float64(i)+0.5)
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("send", sink.data)

	stub.Call(m) // content match: identical bytes
	msg, info, err := d.Decode("send", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if info.FullParse || info.ValuesReparsed != 0 {
		t.Fatalf("identical resend: %+v", info)
	}
	if msg.LeafDouble(10) != 10.5 {
		t.Fatalf("leaf 10 = %g", msg.LeafDouble(10))
	}
}

func TestChangedValuesReparsedLocally(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 50)
	for i := 0; i < 50; i++ {
		arr.Set(i, float64(i))
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("send", sink.data)

	arr.Set(7, 777.25)
	arr.Set(31, -0.125)
	stub.Call(m)
	msg, info, err := d.Decode("send", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if info.FullParse {
		t.Fatalf("structural repeat fully parsed: %+v", info)
	}
	if info.ValuesReparsed != 2 {
		t.Fatalf("reparsed %d values, want 2", info.ValuesReparsed)
	}
	if msg.LeafDouble(7) != 777.25 || msg.LeafDouble(31) != -0.125 {
		t.Fatalf("values: %g %g", msg.LeafDouble(7), msg.LeafDouble(31))
	}
	if msg.LeafDouble(8) != 8 {
		t.Fatalf("untouched value corrupted: %g", msg.LeafDouble(8))
	}

	// The adopted bytes become the new template: re-sending the same
	// message is again a zero-reparse decode.
	stub.Call(m)
	_, info, err = d.Decode("send", sink.data)
	if err != nil || info.FullParse || info.ValuesReparsed != 0 {
		t.Fatalf("third decode: %+v, %v", info, err)
	}
}

func TestMIOFieldsReparse(t *testing.T) {
	mio := wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "y", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
	m := wire.NewMessage("urn:dd", "mios")
	arr := m.AddStructArray("m", mio, 20)
	for i := 0; i < 20; i++ {
		arr.SetInt(i, 0, int32(i))
		arr.SetDouble(i, 2, 1.5)
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{
		Width: core.WidthPolicy{Double: core.MaxWidth, Int: core.MaxWidth},
	}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("mios", sink.data)

	arr.SetDouble(4, 2, 99.75)
	arr.SetInt(9, 1, -12345)
	stub.Call(m)
	msg, info, err := d.Decode("mios", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if info.FullParse || info.ValuesReparsed != 2 {
		t.Fatalf("info: %+v", info)
	}
	r := msg
	if r.LeafDouble(4*3+2) != 99.75 {
		t.Fatalf("double field = %g", r.LeafDouble(4*3+2))
	}
	if r.LeafInt(9*3+1) != -12345 {
		t.Fatalf("int field = %d", r.LeafInt(9*3+1))
	}
}

func TestLengthChangeFallsBackToFullParse(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 10)
	sink := &captureSink{}
	// Exact widths: value growth changes the message length.
	stub := core.NewStub(core.Config{}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("send", sink.data)

	arr.Set(0, 123.456)
	stub.Call(m)
	_, info, err := d.Decode("send", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FullParse || info.Reason != ReasonLength {
		t.Fatalf("info: %+v", info)
	}
}

func TestStringLeafReparse(t *testing.T) {
	m := wire.NewMessage("urn:dd", "names")
	s := m.AddString("who", "aaaa<b>&")
	sink := &captureSink{}
	stub := core.NewStub(core.Config{}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("names", sink.data)

	// Same escaped length, different content.
	s.Set("cccc<d>&")
	stub.Call(m)
	msg, info, err := d.Decode("names", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if info.FullParse || info.ValuesReparsed != 1 {
		t.Fatalf("info: %+v", info)
	}
	if msg.LeafString(0) != "cccc<d>&" {
		t.Fatalf("string = %q", msg.LeafString(0))
	}
}

func TestMarkupTamperFallsBack(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 5)
	for i := 0; i < 5; i++ {
		arr.Set(i, 1.5)
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("send", sink.data)

	// Same length, but markup bytes differ: corrupt an open tag.
	tampered := append([]byte(nil), sink.data...)
	copyAt(tampered, "<itex>", indexOf(tampered, "<item>"))
	_, info, err := d.Decode("send", tampered)
	// Either a full-parse fallback error (bad tag) or a parse error is
	// acceptable — never a silent fast-path success.
	if err == nil && !info.FullParse {
		t.Fatalf("tampered markup served from fast path: %+v", info)
	}
}

func indexOf(b []byte, s string) int {
	for i := 0; i+len(s) <= len(b); i++ {
		if string(b[i:i+len(s)]) == s {
			return i
		}
	}
	return -1
}

func copyAt(b []byte, s string, at int) {
	copy(b[at:], s)
}

func TestSeparateKeysKeepSeparateTemplates(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 5)
	for i := 0; i < 5; i++ {
		arr.Set(i, 1.5)
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	stub.Call(m)
	d := New(testSchema(m))
	d.Decode("clientA", sink.data)
	_, info, err := d.Decode("clientB", sink.data)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FullParse {
		t.Fatal("new key served from another key's template")
	}
	if d.TemplateCount() != 2 {
		t.Fatalf("templates = %d", d.TemplateCount())
	}
}

// TemplateCount reports how many keys hold a template.
func (d *Deserializer) TemplateCount() int {
	n := 0
	for _, h := range d.keys {
		if h.msg != nil {
			n++
		}
	}
	return n
}
