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

// TestGSOAPLikeMatchesDifferentialFirstSend pins the one from-scratch
// renderer against the template builder, which stays a separate
// serializer: for every message shape, the engine's from-scratch call, the
// gSOAP-like baseline and an exact-width first-time template must be
// byte-identical — same grammar, same conversions.
func TestGSOAPLikeMatchesDifferentialFirstSend(t *testing.T) {
	mio := wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "y", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
	shapes := []struct {
		name  string
		build func() *wire.Message
	}{
		{"sample", sampleMessage},
		{"ints", func() *wire.Message {
			m := wire.NewMessage("urn:base", "ints")
			arr := m.AddIntArray("v", 7)
			for i, v := range []int32{0, 1, -1, 42, -2147483648, 2147483647, 1000000} {
				arr.Set(i, v)
			}
			return m
		}},
		{"doubles", func() *wire.Message {
			m := wire.NewMessage("urn:base", "doubles")
			arr := m.AddDoubleArray("v", 8)
			for i, v := range []float64{0, -0.5, 1, 3.141592653589793, 1e-300, -1.7976931348623157e+308, 123456789.125, 0.1} {
				arr.Set(i, v)
			}
			return m
		}},
		{"mios", func() *wire.Message {
			m := wire.NewMessage("urn:base", "mios")
			arr := m.AddStructArray("mios", mio, 5)
			for i := 0; i < 5; i++ {
				arr.SetInt(i, 0, int32(i*i))
				arr.SetInt(i, 1, int32(-i))
				arr.SetDouble(i, 2, float64(i)/7)
			}
			return m
		}},
		{"empty array", func() *wire.Message {
			m := wire.NewMessage("urn:base", "empty")
			m.AddInt("n", 0)
			m.AddDoubleArray("v", 0)
			return m
		}},
		{"escaped strings", func() *wire.Message {
			m := wire.NewMessage("urn:base", "strings")
			m.AddString("s", `<a href="x">&'</a>`)
			arr := m.AddStringArray("v", 3)
			arr.Set(0, "")
			arr.Set(1, "plain")
			arr.Set(2, "1 < 2 && 3 > 2")
			return m
		}},
		{"scalar and struct params", func() *wire.Message {
			m := wire.NewMessage("urn:base", "params")
			m.AddInt("i", -7)
			m.AddDouble("d", 2.5)
			m.AddBool("b", true)
			m.AddString("s", "x&y")
			st := m.AddStruct("p", mio)
			st.SetInt(0, 3)
			st.SetInt(1, -4)
			st.SetDouble(2, 0.25)
			return m
		}},
	}
	for _, sh := range shapes {
		g := string(new(GSOAPLike).Serialize(sh.build()))

		off := &captureSink{}
		if _, err := core.NewStub(core.Config{}, off).CallHeld(nil, sh.build()); err != nil {
			t.Fatal(err)
		}
		first := &captureSink{}
		if _, err := core.NewStub(core.Config{}, first).Call(sh.build()); err != nil {
			t.Fatal(err)
		}
		if g != string(off.data) || g != string(first.data) {
			t.Fatalf("%s: serializers diverge:\n gsoap:    %.400s\n scratch:  %.400s\n template: %.400s",
				sh.name, g, off.data, first.data)
		}
	}
}

func TestXSOAPLikeSameValues(t *testing.T) {
	m := sampleMessage()
	x := new(XSOAPLike)
	xd := x.Serialize(m)
	g := new(GSOAPLike)
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
	for _, ser := range []Serializer{new(GSOAPLike), new(XSOAPLike)} {
		first := append([]byte(nil), ser.Serialize(m)...)
		second := ser.Serialize(m)
		if string(first) != string(second) {
			t.Fatalf("%s: repeated serialization differs", ser.Name())
		}
	}
}

func TestSerializerNames(t *testing.T) {
	if new(GSOAPLike).Name() != "gSOAP-like" || new(XSOAPLike).Name() != "XSOAP-like" {
		t.Fatal("names changed; benchmark output depends on them")
	}
}

func TestClientCall(t *testing.T) {
	m := sampleMessage()
	sink := &captureSink{}
	c := NewClient(new(GSOAPLike), sink)
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
	g := new(GSOAPLike)
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
	g := new(GSOAPLike)
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
	x := new(XSOAPLike)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Serialize(m)
	}
}
