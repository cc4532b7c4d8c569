package baseline

import (
	"net"
	"strings"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
	"bsoap/internal/xsdlex"
)

type captureSink struct{ data []byte }

func (c *captureSink) Send(bufs net.Buffers) error {
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

func sampleMessage() *wire.Message {
	m := wire.NewMessage("urn:base", "sample")
	m.AddInt("n", -7)
	m.AddString("who", "a<b")
	mio := wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "y", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
	arr := m.AddStructArray("mios", mio, 10)
	for i := 0; i < 10; i++ {
		arr.SetInt(i, 0, int32(i))
		arr.SetInt(i, 1, int32(-i))
		arr.SetDouble(i, 2, float64(i)*0.5)
	}
	da := m.AddDoubleArray("vec", 5)
	for i := 0; i < 5; i++ {
		da.Set(i, float64(i)+0.125)
	}
	return m
}

// leafTexts mirrors the extraction used by the core tests.
func leafTexts(t *testing.T, doc []byte) []string {
	t.Helper()
	p := xmlparse.NewParser(doc)
	var out []string
	type frame struct {
		text     strings.Builder
		children int
	}
	var stack []*frame
	for {
		tok, err := p.Next()
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		switch tok.Kind {
		case xmlparse.EOF:
			return out
		case xmlparse.StartElement:
			if len(stack) > 0 {
				stack[len(stack)-1].children++
			}
			stack = append(stack, &frame{})
		case xmlparse.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text.Write(tok.Text)
			}
		case xmlparse.EndElement:
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.children == 0 {
				out = append(out, xsdlex.TrimSpace(f.text.String()))
			}
		}
	}
}

func TestGSOAPLikeMatchesDifferentialFirstSend(t *testing.T) {
	m := sampleMessage()
	g := NewGSOAPLike()
	got := append([]byte(nil), g.Serialize(m)...)

	sink := &captureSink{}
	stub := core.NewStub(core.Config{}, sink)
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	// With exact widths the differential first-time send and the gSOAP
	// baseline must be byte-identical: same grammar, same conversions.
	if string(got) != string(sink.data) {
		t.Fatalf("baselines diverge:\n gsoap: %.400s\n bsoap: %.400s", got, sink.data)
	}
}

func TestXSOAPLikeSameValues(t *testing.T) {
	m := sampleMessage()
	x := NewXSOAPLike()
	xd := x.Serialize(m)
	g := NewGSOAPLike()
	gd := g.Serialize(m)
	xs, gs := leafTexts(t, xd), leafTexts(t, gd)
	if len(xs) != len(gs) {
		t.Fatalf("leaf counts differ: %d vs %d", len(xs), len(gs))
	}
	for i := range xs {
		if xs[i] != gs[i] {
			t.Fatalf("leaf %d differs: %q vs %q", i, xs[i], gs[i])
		}
	}
}

func TestSerializersAreReusable(t *testing.T) {
	m := sampleMessage()
	for _, ser := range []Serializer{NewGSOAPLike(), NewXSOAPLike()} {
		first := append([]byte(nil), ser.Serialize(m)...)
		second := ser.Serialize(m)
		if string(first) != string(second) {
			t.Fatalf("%s: repeated serialization differs", ser.Name())
		}
	}
}

func TestSerializerNames(t *testing.T) {
	if NewGSOAPLike().Name() != "gSOAP-like" || NewXSOAPLike().Name() != "XSOAP-like" {
		t.Fatal("names changed; benchmark output depends on them")
	}
}

func TestClientCall(t *testing.T) {
	m := sampleMessage()
	sink := &captureSink{}
	c := NewClient(NewGSOAPLike(), sink)
	n, err := c.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sink.data) || n == 0 {
		t.Fatalf("Call reported %d bytes, sink got %d", n, len(sink.data))
	}
}

func TestValueUpdatesAreReflected(t *testing.T) {
	// Full serializers read the live message every call: no staleness.
	m := wire.NewMessage("urn:base", "op")
	d := m.AddDouble("v", 1.5)
	g := NewGSOAPLike()
	if !strings.Contains(string(g.Serialize(m)), ">1.5<") {
		t.Fatal("value missing")
	}
	d.Set(2.5)
	if !strings.Contains(string(g.Serialize(m)), ">2.5<") {
		t.Fatal("update not reflected")
	}
}

func BenchmarkGSOAPLikeDoubles1K(b *testing.B) {
	m := wire.NewMessage("urn:base", "op")
	arr := m.AddDoubleArray("v", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i)*1.0001)
	}
	g := NewGSOAPLike()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Serialize(m)
	}
}

func BenchmarkXSOAPLikeDoubles1K(b *testing.B) {
	m := wire.NewMessage("urn:base", "op")
	arr := m.AddDoubleArray("v", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i)*1.0001)
	}
	x := NewXSOAPLike()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Serialize(m)
	}
}
