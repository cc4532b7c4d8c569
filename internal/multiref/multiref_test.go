package multiref

import (
	"strings"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
)

// catalogMessage builds a message with heavily repeated strings — the
// shape multi-ref pays off on (e.g. metadata attribute values).
func catalogMessage() *wire.Message {
	m := wire.NewMessage("urn:mr", "register")
	m.AddString("owner", "high-energy-physics-group")
	arr := m.AddStringArray("files", 20)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			arr.Set(i, "/data/experiment-2026/run-alpha.h5")
		} else {
			arr.Set(i, "/data/experiment-2026/run-beta.h5")
		}
	}
	m.AddString("ownerAgain", "high-energy-physics-group")
	return m
}

func schemaFor(m *wire.Message) soapdec.Lookup {
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

func TestEncodeDeduplicatesRepeatedStrings(t *testing.T) {
	m := catalogMessage()
	enc := NewEncoder()
	doc := enc.Serialize(m)
	text := string(doc)

	if !HasRefs(doc) {
		t.Fatal("no hrefs emitted")
	}
	// Each repeated value must be serialized exactly once.
	if n := strings.Count(text, "run-alpha.h5"); n != 1 {
		t.Fatalf("alpha serialized %d times", n)
	}
	if n := strings.Count(text, "run-beta.h5"); n != 1 {
		t.Fatalf("beta serialized %d times", n)
	}
	if n := strings.Count(text, "high-energy-physics-group"); n != 1 {
		t.Fatalf("owner serialized %d times", n)
	}
	// And the message must be meaningfully smaller than the plain form.
	plain := new(baseline.GSOAPLike).Serialize(m)
	if len(doc) >= len(plain) {
		t.Fatalf("multi-ref (%d bytes) not smaller than plain (%d)", len(doc), len(plain))
	}
}

func TestInlineRestoresPlainEnvelope(t *testing.T) {
	m := catalogMessage()
	doc := NewEncoder().Serialize(m)
	inlined, err := Inline(doc)
	if err != nil {
		t.Fatal(err)
	}
	if HasRefs(inlined) {
		t.Fatal("hrefs survive inlining")
	}
	if strings.Contains(string(inlined), "multiRef") {
		t.Fatal("multiRef section survives inlining")
	}
	if err := Verify(inlined); err != nil {
		t.Fatalf("inlined document malformed: %v\n%s", err, inlined)
	}

	// The inlined document must decode to exactly the original values.
	res, err := soapdec.Decode(inlined, schemaFor(m), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumLeaves(); i++ {
		if res.Msg.LeafString(i) != m.LeafString(i) {
			t.Fatalf("leaf %d: %q != %q", i, res.Msg.LeafString(i), m.LeafString(i))
		}
	}
}

func TestShortAndUniqueStringsStayInline(t *testing.T) {
	m := wire.NewMessage("urn:mr", "op")
	m.AddString("a", "tiny") // short: below minLength
	m.AddString("b", "tiny") // repeated but short
	m.AddString("c", "a unique and long enough value")
	doc := NewEncoder().Serialize(m)
	if HasRefs(doc) {
		t.Fatalf("hrefs for short/unique strings:\n%s", doc)
	}
}

func TestEscapedValuesRoundTrip(t *testing.T) {
	m := wire.NewMessage("urn:mr", "op")
	v := "needs <escaping> & \"quotes\" galore"
	m.AddString("a", v)
	m.AddString("b", v)
	doc := NewEncoder().Serialize(m)
	if !HasRefs(doc) {
		t.Fatal("repeated escaped value not deduplicated")
	}
	inlined, err := Inline(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := soapdec.Decode(inlined, schemaFor(m), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.LeafString(0) != v || res.Msg.LeafString(1) != v {
		t.Fatalf("escaped values corrupted: %q / %q", res.Msg.LeafString(0), res.Msg.LeafString(1))
	}
}

func TestMixedTypesUnaffected(t *testing.T) {
	m := wire.NewMessage("urn:mr", "op")
	m.AddInt("n", 42)
	m.AddDouble("d", 2.5)
	arr := m.AddStringArray("s", 4)
	for i := 0; i < 4; i++ {
		arr.Set(i, "the same repeated value")
	}
	doc := NewEncoder().Serialize(m)
	inlined, err := Inline(doc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := soapdec.Decode(inlined, schemaFor(m), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.LeafInt(0) != 42 || res.Msg.LeafDouble(1) != 2.5 {
		t.Fatal("numeric leaves corrupted")
	}
}

func TestInlineErrors(t *testing.T) {
	cases := map[string]string{
		"undefined ref":   `<a><b href="#mr9"/></a>`,
		"unterminated":    `<a><b href="#mr0></a>`,
		"not selfclosing": `<a><b href="#mr0">x</b><multiRef id="mr0">v</multiRef></a>`,
		"dup id":          `<a><b href="#mr0"/><multiRef id="mr0">v</multiRef><multiRef id="mr0">w</multiRef></a>`,
		"open multiRef":   `<a><b href="#mr0"/><multiRef id="mr0">v</a>`,
	}
	for name, doc := range cases {
		if _, err := Inline([]byte(doc)); err == nil {
			t.Errorf("%s: inlined without error", name)
		}
	}
}

func TestHasRefs(t *testing.T) {
	if HasRefs([]byte("<plain/>")) {
		t.Error("false positive")
	}
	if !HasRefs([]byte(`<a href="#x"/>`)) {
		t.Error("false negative")
	}
}

func TestInlineOnPlainDocumentIsIdentity(t *testing.T) {
	doc := []byte(`<E:Envelope><E:Body><op><v>1</v></op></E:Body></E:Envelope>`)
	out, err := Inline(doc)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(doc) {
		t.Fatal("plain document altered")
	}
}

func TestSerializeIsRepeatable(t *testing.T) {
	m := catalogMessage()
	e := NewEncoder()
	first := append([]byte(nil), e.Serialize(m)...)
	second := e.Serialize(m)
	if string(first) != string(second) {
		t.Fatal("repeated serialization differs")
	}
}

// Verify checks that an inlined document still parses; used by tests
// and available to servers that want defence in depth.
func Verify(body []byte) error {
	p := xmlparse.NewParser(body)
	for {
		tok, err := p.Next()
		if err != nil {
			return err
		}
		if tok.Kind == xmlparse.EOF {
			return nil
		}
	}
}
