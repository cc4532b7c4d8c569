package xmlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"bsoap/internal/xmlwr"
	"bsoap/internal/xsdlex"
)

// tokens drains the parser, failing the test on error. Tokens are
// returned in string form, copied: a token's Attrs do not survive the
// next call.
func tokens(t *testing.T, doc string) []refToken {
	t.Helper()
	p := NewParser([]byte(doc))
	var out []refToken
	for {
		tok, err := p.Next()
		if err != nil {
			t.Fatalf("Next: %v (doc %q)", err, doc)
		}
		if tok.Kind == EOF {
			return out
		}
		out = append(out, toRef(tok))
	}
}

func TestSimpleDocument(t *testing.T) {
	toks := tokens(t, "<a><b>hi</b></a>")
	want := []refToken{
		{Kind: StartElement, Name: "a"},
		{Kind: StartElement, Name: "b"},
		{Kind: CharData, Text: "hi"},
		{Kind: EndElement, Name: "b"},
		{Kind: EndElement, Name: "a"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, tok := range toks {
		if tok.Kind != want[i].Kind || tok.Name != want[i].Name || tok.Text != want[i].Text {
			t.Errorf("token %d = %+v, want %+v", i, tok, want[i])
		}
	}
}

func TestAttributes(t *testing.T) {
	toks := tokens(t, `<e a="1" b='two' c="a&amp;b"/>`)
	if toks[0].Kind != StartElement || len(toks[0].Attrs) != 3 {
		t.Fatalf("start token %+v", toks[0])
	}
	want := []refAttr{{"a", "1"}, {"b", "two"}, {"c", "a&b"}}
	for i, a := range toks[0].Attrs {
		if a != want[i] {
			t.Errorf("attr %d = %+v, want %+v", i, a, want[i])
		}
	}
	if toks[1].Kind != EndElement || toks[1].Name != "e" {
		t.Fatalf("self-closing tag did not synthesize end: %+v", toks[1])
	}
}

func TestXMLDeclAndComments(t *testing.T) {
	doc := `<?xml version="1.0"?><!-- c --><r><!-- inner -->x</r>`
	toks := tokens(t, doc)
	if len(toks) != 3 || toks[1].Text != "x" {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestCDATA(t *testing.T) {
	toks := tokens(t, "<r><![CDATA[a<b&c]]></r>")
	if len(toks) != 3 || toks[1].Kind != CharData || toks[1].Text != "a<b&c" {
		t.Fatalf("tokens: %+v", toks)
	}
}

func TestEntitiesInText(t *testing.T) {
	toks := tokens(t, "<r>&lt;&amp;&gt;&#65;</r>")
	if toks[1].Text != "<&>A" {
		t.Fatalf("text: %q", toks[1].Text)
	}
}

func TestNamespacePrefixesPreserved(t *testing.T) {
	toks := tokens(t, `<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://x"><SOAP-ENV:Body/></SOAP-ENV:Envelope>`)
	if toks[0].Name != "SOAP-ENV:Envelope" {
		t.Fatalf("name: %q", toks[0].Name)
	}
	if Local(toks[0].Name) != "Envelope" {
		t.Fatalf("Local: %q", Local(toks[0].Name))
	}
}

func TestLocal(t *testing.T) {
	for in, want := range map[string]string{"a:b": "b", "b": "b", "x:y:z": "z", ":n": "n"} {
		if got := Local(in); got != want {
			t.Errorf("Local(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMismatchedTagsError(t *testing.T) {
	for _, doc := range []string{"<a></b>", "<a><b></a></b>", "</a>", "<a>", "<a><b></b>"} {
		p := NewParser([]byte(doc))
		var err error
		for err == nil {
			var tok *Token
			tok, err = p.Next()
			if err == nil && tok.Kind == EOF {
				break
			}
		}
		if err == nil {
			t.Errorf("document %q parsed without error", doc)
		}
	}
}

func TestMalformedMarkupErrors(t *testing.T) {
	for _, doc := range []string{
		"<a b></a>",       // attribute without value
		`<a b="1></a>`,    // unterminated attribute
		"<a><![CDATA[x]]", // unterminated CDATA
		"<!-- unclosed",   // unterminated comment
		"<?pi unclosed",   // unterminated PI
		"<a>&bogus;</a>",  // unknown entity
		"<",               // truncated
		"<a / ></a>",      // stray slash
		`<a "v"></a>`,     // missing attribute name
	} {
		p := NewParser([]byte(doc))
		sawErr := false
		for {
			tok, err := p.Next()
			if err != nil {
				sawErr = true
				break
			}
			if tok.Kind == EOF {
				break
			}
		}
		if !sawErr {
			t.Errorf("document %q parsed without error", doc)
		}
	}
}

func TestWhitespaceBetweenElements(t *testing.T) {
	p := NewParser([]byte("<r>\n  <a>1</a>\n</r>"))
	tok, err := p.ExpectStart("r")
	if err != nil {
		t.Fatal(err)
	}
	tok, err = p.ExpectStart("a")
	if err != nil || string(tok.Name) != "a" {
		t.Fatalf("ExpectStart(a): %+v, %v", tok, err)
	}
	text, err := p.Text()
	if err != nil || string(text) != "1" {
		t.Fatalf("Text: %q, %v", text, err)
	}
	if _, err := p.ExpectEnd(); err != nil {
		t.Fatalf("ExpectEnd: %v", err)
	}
}

func TestExpectStartRejectsWrongElement(t *testing.T) {
	p := NewParser([]byte("<a/>"))
	if _, err := p.ExpectStart("b"); err == nil {
		t.Fatal("ExpectStart accepted wrong element")
	}
	p = NewParser([]byte("text"))
	if _, err := p.ExpectStart("b"); err == nil {
		t.Fatal("ExpectStart accepted char data")
	}
}

func TestSkipElement(t *testing.T) {
	p := NewParser([]byte("<r><skip><deep>x</deep></skip><keep>y</keep></r>"))
	if _, err := p.ExpectStart("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExpectStart("skip"); err != nil {
		t.Fatal(err)
	}
	if err := p.SkipElement(); err != nil {
		t.Fatal(err)
	}
	tok, err := p.ExpectStart("keep")
	if err != nil || string(tok.Name) != "keep" {
		t.Fatalf("after skip: %+v, %v", tok, err)
	}
}

func TestTextAcrossCDATA(t *testing.T) {
	p := NewParser([]byte("<r>ab<![CDATA[<raw>]]>cd</r>"))
	if _, err := p.ExpectStart("r"); err != nil {
		t.Fatal(err)
	}
	text, err := p.Text()
	if err != nil || string(text) != "ab<raw>cd" {
		t.Fatalf("Text: %q, %v", text, err)
	}
}

func TestOffsetAdvances(t *testing.T) {
	doc := []byte("<a>xy</a>")
	p := NewParser(doc)
	if p.Offset() != 0 {
		t.Fatal("initial offset")
	}
	p.Next() // <a>
	after := p.Offset()
	if after != 3 {
		t.Fatalf("offset after start tag = %d", after)
	}
	p.Next() // xy
	if p.Offset() != 5 {
		t.Fatalf("offset after text = %d", p.Offset())
	}
}

func TestDepth(t *testing.T) {
	p := NewParser([]byte("<a><b></b></a>"))
	p.Next()
	if len(p.stack) != 1 {
		t.Fatalf("depth after <a> = %d", len(p.stack))
	}
	p.Next() // <b>
	if len(p.stack) != 2 {
		t.Fatalf("depth after <b> = %d", len(p.stack))
	}
	p.Next() // </b>
	p.Next() // </a>
	if len(p.stack) != 0 {
		t.Fatalf("final depth = %d", len(p.stack))
	}
}

// TestWriterParserRoundTrip uses random trees produced by the writer and
// checks the parser reproduces the structure and attribute values
// exactly, and each string as character data escaped as the writer
// escapes attributes.
func TestWriterParserRoundTrip(t *testing.T) {
	f := func(texts []string) bool {
		w := xmlwr.NewWriter(256)
		w.Start("root")
		for i, s := range texts {
			// Element names must be XML names; texts are arbitrary.
			name := "e" + string(rune('a'+i%26))
			w.Start(name).Attr("attr", s).End()
		}
		w.End()
		doc, err := w.Result()
		if err != nil {
			return false
		}
		p := NewParser(doc)
		if _, err := p.ExpectStart("root"); err != nil {
			return false
		}
		for i, s := range texts {
			tok, err := p.ExpectStart("")
			if err != nil {
				t.Logf("elem %d: %v", i, err)
				return false
			}
			if len(tok.Attrs) != 1 || string(tok.Attrs[0].Value) != s {
				t.Logf("elem %d attr mismatch: %+v vs %q", i, tok.Attrs, s)
				return false
			}
			if text, err := p.Text(); err != nil || len(text) != 0 {
				t.Logf("elem %d: self-closed element has text %q (%v)", i, text, err)
				return false
			}
			tp := NewParser(append(xsdlex.EscapeText([]byte("<t>"), s), "</t>"...))
			if _, err := tp.ExpectStart("t"); err != nil {
				return false
			}
			if text, err := tp.Text(); err != nil || string(text) != s {
				t.Logf("elem %d text %q vs %q (%v)", i, text, s, err)
				return false
			}
		}
		_, err = p.ExpectEnd()
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLargeFlatDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<arr>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<v>1.5</v>")
	}
	sb.WriteString("</arr>")
	p := NewParser([]byte(sb.String()))
	count := 0
	for {
		tok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == EOF {
			break
		}
		if tok.Kind == CharData {
			count++
		}
	}
	if count != 5000 {
		t.Fatalf("parsed %d values", count)
	}
}
