package xmlparse

import (
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
			if p.Offset() != ref.Offset() || p.Depth() != ref.Depth() {
				t.Fatalf("token %d: offset %d depth %d, reference offset %d depth %d",
					i, p.Offset(), p.Depth(), ref.Offset(), ref.Depth())
			}
			if tok.Kind == EOF {
				return
			}
		}
	})
}
