//go:build !race

package xmlparse

import (
	"strings"
	"testing"
)

// TestTokensAllocateNothing pins the tokenizer's contract: reading a
// document costs the parser and its two small slices, whatever the
// document's size — no allocation per name, attribute or text run — and
// the exceptions are the two the contract names: text holding an entity,
// and text joined across a comment or a CDATA section. (AllocsPerRun
// counts the race detector's own allocations, hence the build tag.)
func TestTokensAllocateNothing(t *testing.T) {
	walk := func(doc []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			p := NewParser(doc)
			if _, err := p.ExpectStart("arr"); err != nil {
				t.Fatal(err)
			}
			for {
				tok, err := p.NextNonSpace()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == EndElement {
					return
				}
				if _, err := p.Text(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	doc := func(n int, item string) []byte {
		return []byte(`<arr a="1" b='2'>` + strings.Repeat(item, n) + "</arr>")
	}
	const plain = `<p:item k="v">12.5</p:item >  `
	small, large := walk(doc(10, plain)), walk(doc(5000, plain))
	if small != large || large > 8 {
		t.Errorf("plain items: %v allocs for 10, %v for 5000; want the same few", small, large)
	}
	if got := walk(doc(100, `<item>1&#50;</item>`)); got < 100 {
		t.Errorf("entity text: %v allocs for 100 items, want one resolved copy each", got)
	}
	if got := walk(doc(100, `<item>1<!-- c -->2</item>`)); got < 100 {
		t.Errorf("split text: %v allocs for 100 items, want one joined copy each", got)
	}
}
