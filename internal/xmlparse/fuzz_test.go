package xmlparse

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParser asserts the tokenizer never panics or loops — any input
// terminates in EOF or an error within a bounded number of tokens — and
// that it reads every input exactly as the reference tokenizer
// (reference_test.go) does: the same tokens, offsets and depths up to the
// same end, EOF or an error at the same token.
func FuzzParser(f *testing.F) {
	seeds := []string{
		"",
		"<a/>",
		"<a><b>text</b></a>",
		`<a k="v" x='y'>&lt;&#65;</a>`,
		"<?xml version=\"1.0\"?><!-- c --><r><![CDATA[x]]></r>",
		"<a><b></a></b>",
		"<a b=></a>",
		"&&&&",
		"<<<>>>",
		"<a>\xff\xfe</a>",
		"<SOAP-ENV:Envelope><SOAP-ENV:Body/></SOAP-ENV:Envelope>",
		// Where a tokenizer of views can differ from one of copies.
		"<v>1&#48;</v>",
		"<v>1<!-- c -->2<![CDATA[3]]>4</v>",
		"<a><item/><item ></item ></a>",
		"<p:q:r p:k='&amp;' q=\"'\"></p:q:r>",
		"<a> <?pi x?>\n<b/>\t</a>",
		"<a><![CDATA[]]></a><!-->",
		"<a k='v' k2='w'><b k3='x'/></a>",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ref := NewParser(data), newRefParser(data)
		for i := 0; ; i++ {
			if i > len(data)+16 {
				t.Fatalf("parser produced more tokens than input bytes: %d", i)
			}
			tok, err := p.Next()
			want, wantErr := ref.Next()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("token %d: error %v, reference %v", i, err, wantErr)
			}
			if err != nil {
				return
			}
			if got := toRef(tok); !reflect.DeepEqual(got, want) {
				t.Fatalf("token %d: %+v, reference %+v", i, got, want)
			}
			if p.Offset() != ref.Offset() || len(p.stack) != ref.Depth() {
				t.Fatalf("token %d: offset %d depth %d, reference offset %d depth %d",
					i, p.Offset(), len(p.stack), ref.Offset(), ref.Depth())
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
}

// FuzzExpect holds ExpectStart, Text and ExpectEnd, which read the tags
// a serializer writes with one compare, to their general-walk bodies
// (reference_test.go). The input is a document, a 0 byte and a script:
// each script byte is one call — an expect-start of a name drawn from
// the document, a text read or an expect-end — made on two parsers of
// the document, one through each. After every call both must report the
// same token, text, offset, depth and error-or-not; after an error the
// script ends. Names are numbered in order of first appearance, after
// "" (any element).
func FuzzExpect(f *testing.F) {
	// Script bytes: 4k (or 4k+3) expects names[k], 1 reads text, 2
	// expects an end.
	seeds := []struct{ doc, script string }{
		{"<a><b>1</b><b>2.5</b></a>", "\x04\x08\x01\x08\x01\x02"},
		{"<E:Envelope> <E:Body><op><v>7</v>\n</op></E:Body></E:Envelope>", "\x08\x10\x14\x18\x01\x02\x02\x02"},
		// Every form the fast reads decline: white space, attributes
		// and a slash inside a tag, a prefix, an entity, a comment,
		// CDATA, a child element, a mismatched close, an empty element.
		{"<a ><b>1</b ><c/><d k='v'>2</d></a >", "\x04\x08\x01\x10\x01\x14\x01\x02"},
		{"<p:a><p:b>1&#48;</p:b><b><!-- c -->3<![CDATA[4]]></b></p:a>", "\x08\x10\x01\x10\x01\x02"},
		{"<a><b>1<c>2</c></b></a>", "\x04\x08\x01"},
		{"<a><x>1</y></a>", "\x04\x08\x01"},
		{"<a>  <!-- c --> <b></b>\n</a>", "\x04\x0c\x01\x02"},
		{"<a><b>x</b></a>", "\x04\x02"},
	}
	for _, s := range seeds {
		f.Add([]byte(s.doc + "\x00" + s.script))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		doc, script, _ := bytes.Cut(in, []byte{0})
		// Names to expect: every run of name bytes in the document and
		// its local part, so that prefixed, unprefixed and foreign names
		// all occur, and "" (any element).
		names, seen := []string{""}, map[string]bool{"": true}
		for rest := doc; len(rest) > 0; {
			n := 0
			for n < len(rest) && nameByte[rest[n]] {
				n++
			}
			for _, name := range []string{string(rest[:n]), string(Local(rest[:n]))} {
				if !seen[name] {
					names, seen[name] = append(names, name), true
				}
			}
			rest = rest[min(n+1, len(rest)):]
		}
		p, ref := NewParser(doc), NewParser(doc)
		for i, op := range script {
			var got, want *Token
			var gotText, wantText []byte
			var err, wantErr error
			switch op % 4 {
			case 0, 3:
				name := names[int(op/4)%len(names)]
				got, err = p.ExpectStart(name)
				want, wantErr = refExpectStart(ref, name)
			case 1:
				gotText, err = p.Text()
				wantText, wantErr = refText(ref)
				got, want = &p.tok, &ref.tok
			case 2:
				got, err = p.ExpectEnd()
				want, wantErr = refExpectEnd(ref)
			}
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("step %d (op %d): error %v, reference %v", i, op, err, wantErr)
			}
			if err != nil {
				return
			}
			if g, w := toRef(got), toRef(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d (op %d): token %+v, reference %+v", i, op, g, w)
			}
			if !bytes.Equal(gotText, wantText) || (gotText == nil) != (wantText == nil) {
				t.Fatalf("step %d: text %q, reference %q", i, gotText, wantText)
			}
			if p.Offset() != ref.Offset() || len(p.stack) != len(ref.stack) {
				t.Fatalf("step %d: offset %d depth %d, reference offset %d depth %d",
					i, p.Offset(), len(p.stack), ref.Offset(), len(ref.stack))
			}
		}
	})
}
