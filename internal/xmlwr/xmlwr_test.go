package xmlwr

import (
	"strings"
	"testing"
)

func result(t *testing.T, w *Writer) string {
	t.Helper()
	b, err := w.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return string(b)
}

func TestSimpleDocument(t *testing.T) {
	w := NewWriter(64)
	w.Start("root").Start("a").Attr("v", "x").End().Start("b").Start("c").End().End().End()
	if got := result(t, w); got != `<root><a v="x"/><b><c/></b></root>` {
		t.Fatalf("got %q", got)
	}
}

func TestDecl(t *testing.T) {
	w := NewWriter(64)
	w.Decl().Start("r").End()
	want := `<?xml version="1.0" encoding="UTF-8"?>` + "\n<r/>"
	if got := result(t, w); got != want {
		t.Fatalf("got %q", got)
	}
}

func TestAttributes(t *testing.T) {
	w := NewWriter(64)
	w.Start("e").Attr("a", "1").Attr("b", `<&">`).Start("t").End().End()
	want := `<e a="1" b="&lt;&amp;&quot;&gt;"><t/></e>`
	if got := result(t, w); got != want {
		t.Fatalf("got %q", got)
	}
}

func TestSelfClosingEmptyElement(t *testing.T) {
	w := NewWriter(16)
	w.Start("empty").Attr("k", "v").End()
	if got := result(t, w); got != `<empty k="v"/>` {
		t.Fatalf("got %q", got)
	}
}

// TestTextEscaping: text reaches a document only as attribute values.
func TestTextEscaping(t *testing.T) {
	w := NewWriter(32)
	w.Start("t").Attr("v", "a<b & c>d").End()
	if got := result(t, w); got != `<t v="a&lt;b &amp; c&gt;d"/>` {
		t.Fatalf("got %q", got)
	}
}

func TestUnbalancedEndIsError(t *testing.T) {
	w := NewWriter(8)
	w.Start("a").End().End()
	if _, err := w.Result(); err == nil {
		t.Fatal("extra End not reported")
	}
}

func TestOpenElementsReportedByResult(t *testing.T) {
	w := NewWriter(8)
	w.Start("a").Start("b")
	if _, err := w.Result(); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("unclosed element error = %v", err)
	}
}

func TestAttrAfterContentIsError(t *testing.T) {
	w := NewWriter(8)
	w.Start("a").Start("x").End().Attr("k", "v").End()
	if _, err := w.Result(); err == nil {
		t.Fatal("attribute after content not reported")
	}
}

func TestErrorIsSticky(t *testing.T) {
	w := NewWriter(8)
	w.End() // error
	before := w.Err()
	w.Start("a").Attr("k", "v").End()
	if w.Err() != before {
		t.Fatal("later calls replaced the first error")
	}
}
