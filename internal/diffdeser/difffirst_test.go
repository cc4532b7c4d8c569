package diffdeser

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/wire"
)

// The tests below pin the edges of the diff-first decode: where the
// block-wise compare ends, where a region crosses a block, and what a
// body that fails part-way leaves behind.

func TestMismatch(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 255, 256, 257, 263, 264, 511, 512, 520, 1000} {
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(i * 7)
		}
		b := append([]byte(nil), a...)
		if got := mismatch(a, b); got != n {
			t.Fatalf("n=%d equal: mismatch = %d", n, got)
		}
		for pos := 0; pos < n; pos++ {
			b[pos] ^= 0x80
			if n-1 > pos {
				b[n-1] ^= 1 // a later difference must not win
			}
			if got := mismatch(a, b); got != pos {
				t.Fatalf("n=%d: mismatch = %d, want %d", n, got, pos)
			}
			copy(b, a)
		}
	}
}

// stuffedDoubles renders n max-width doubles through a bSOAP stub, so
// every send has the same length and the same leaf regions.
type stuffedDoubles struct {
	msg  *wire.Message
	arr  wire.DoubleArrayRef
	sink *captureSink
	stub *core.Stub
}

func newStuffedDoubles(n int) *stuffedDoubles {
	s := &stuffedDoubles{msg: wire.NewMessage("urn:dd", "send"), sink: &captureSink{}}
	s.arr = s.msg.AddDoubleArray("v", n)
	for i := 0; i < n; i++ {
		s.arr.Set(i, float64(i))
	}
	s.stub = core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, s.sink)
	return s
}

func (s *stuffedDoubles) body(t testing.TB) []byte {
	t.Helper()
	if _, err := s.stub.Call(s.msg); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), s.sink.data...)
}

// snapshot copies what a failed decode must leave untouched.
type snapshot struct {
	body    []byte
	doubles []float64
}

func snap(tpl *owned) snapshot {
	s := snapshot{body: append([]byte(nil), tpl.body...)}
	for i := 0; i < tpl.msg.NumLeaves(); i++ {
		s.doubles = append(s.doubles, tpl.msg.LeafDouble(i))
	}
	return s
}

func (s snapshot) check(t *testing.T, tpl *owned) {
	t.Helper()
	if !bytes.Equal(tpl.body, s.body) {
		t.Fatal("failed decode changed the retained bytes")
	}
	for i, want := range s.doubles {
		if got := tpl.msg.LeafDouble(i); got != want {
			t.Fatalf("failed decode left leaf %d = %g, was %g", i, got, want)
		}
	}
}

func templates(t *testing.T, d *Deserializer, key string) []*owned {
	t.Helper()
	kt := d.keys[key]
	if kt == nil {
		t.Fatalf("no templates for %q", key)
	}
	return kt.list
}

func TestMismatchInLastPartialBlockAndTrailingMarkup(t *testing.T) {
	c := newStuffedDoubles(40)
	d := New(testSchema(c.msg))
	first := c.body(t)
	if _, _, err := d.Decode("k", first); err != nil {
		t.Fatal(err)
	}
	last := templates(t, d, "k")[0].ranges[39]
	if len(first)%256 == 0 || int(last.Start) < len(first)/256*256 {
		t.Fatalf("last leaf at %d of %d bytes is not in a partial block", last.Start, len(first))
	}

	c.arr.Set(39, -2.5)
	msg, info, err := d.Decode("k", c.body(t))
	if err != nil || info.FullParse || info.ValuesReparsed != 1 {
		t.Fatalf("last leaf changed: %+v, %v", info, err)
	}
	if msg.LeafDouble(39) != -2.5 || msg.LeafDouble(38) != 38 {
		t.Fatalf("leaves 38, 39 = %g, %g", msg.LeafDouble(38), msg.LeafDouble(39))
	}

	// Same length, one byte of the envelope's closing tag changed: the
	// difference lies after every leaf region.
	before := snap(templates(t, d, "k")[0])
	bad := c.body(t)
	bad[len(bad)-2] = 'X'
	if _, info, err := d.Decode("k", bad); err == nil && !info.FullParse {
		t.Fatalf("trailing markup change served from the fast path: %+v", info)
	}
	before.check(t, templates(t, d, "k")[0])
}

func TestChangedRegionStraddlesBlockBoundary(t *testing.T) {
	c := newStuffedDoubles(40)
	d := New(testSchema(c.msg))
	if _, _, err := d.Decode("k", c.body(t)); err != nil {
		t.Fatal(err)
	}
	leaf := -1
	for i, r := range templates(t, d, "k")[0].ranges {
		// A 24-character value rewrites at least the first 24 bytes of
		// its region, so a boundary inside them has changes on both sides.
		if b := (r.Start/256 + 1) * 256; b > r.Start+2 && b < r.Start+20 {
			leaf = i
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no leaf region crosses a 256-byte boundary")
	}
	c.arr.Set(leaf, -math.MaxFloat64)
	msg, info, err := d.Decode("k", c.body(t))
	if err != nil || info.FullParse || info.ValuesReparsed != 1 {
		t.Fatalf("straddling region: %+v, %v", info, err)
	}
	if msg.LeafDouble(leaf) != -math.MaxFloat64 {
		t.Fatalf("leaf %d = %g", leaf, msg.LeafDouble(leaf))
	}
}

// insertAfter returns body with a space inserted after the first
// occurrence of marker: same message, different static bytes.
func insertAfter(t *testing.T, body []byte, marker string) []byte {
	t.Helper()
	at := bytes.Index(body, []byte(marker))
	if at < 0 {
		t.Fatalf("%q not in body", marker)
	}
	return slices.Insert(bytes.Clone(body), at+len(marker), ' ')
}

// TestFirstCandidateFailsAfterRegionsSet keeps two templates of one
// length under one key that differ only in markup after the last leaf.
// A body for the older one sets its changed leaves in the newer one
// before the markup difference is reached; the newer template must come
// out of that exactly as it went in, and the older one must then hit.
func TestFirstCandidateFailsAfterRegionsSet(t *testing.T) {
	c := newStuffedDoubles(12)
	d := New(testSchema(c.msg))
	plain := c.body(t)
	spaceA := func(b []byte) []byte { return insertAfter(t, b, "</ns1:send>") }
	spaceB := func(b []byte) []byte { return insertAfter(t, b, "</SOAP-ENV:Body>") }

	if _, info, err := d.Decode("k", spaceA(plain)); err != nil || !info.FullParse {
		t.Fatalf("template A: %+v, %v", info, err)
	}
	if _, info, err := d.Decode("k", spaceB(plain)); err != nil || !info.FullParse {
		t.Fatalf("template B: %+v, %v", info, err)
	}
	list := templates(t, d, "k")
	if len(list) != 2 {
		t.Fatalf("templates = %d, want 2", len(list))
	}
	tplB, tplA := list[0], list[1]
	before := snap(tplB)

	c.arr.Set(1, 101.5)
	c.arr.Set(6, 106.5)
	c.arr.Set(11, 111.5)
	msg, info, err := d.Decode("k", spaceA(c.body(t)))
	if err != nil || info.FullParse || info.ValuesReparsed != 3 {
		t.Fatalf("body for template A: %+v, %v", info, err)
	}
	if msg != tplA.msg || msg.LeafDouble(1) != 101.5 || msg.LeafDouble(6) != 106.5 || msg.LeafDouble(11) != 111.5 {
		t.Fatal("template A did not serve the changed values")
	}
	before.check(t, tplB)
	if templates(t, d, "k")[1] != tplB {
		t.Fatal("template B was dropped")
	}

	// And B still serves its own, unchanged body with nothing re-lexed.
	msg, info, err = d.Decode("k", spaceB(plain))
	if err != nil || info.FullParse || info.ValuesReparsed != 0 || msg != tplB.msg {
		t.Fatalf("body for template B: %+v, %v", info, err)
	}
}

func TestFailureAtLastLeafRollsBackEarlierOnes(t *testing.T) {
	c := newStuffedDoubles(30)
	d := New(testSchema(c.msg))
	clean := c.body(t)
	if _, _, err := d.Decode("k", clean); err != nil {
		t.Fatal(err)
	}
	tpl := templates(t, d, "k")[0]
	before := snap(tpl)

	for i := 0; i < 30; i++ {
		c.arr.Set(i, float64(i)+0.25)
	}
	evil := c.body(t)
	evil[tpl.ranges[29].Start] = 'x' // 29 leaves lex, the last does not
	if _, _, err := d.Decode("k", evil); err == nil {
		t.Fatal("corrupt last leaf decoded")
	}
	if got := templates(t, d, "k"); len(got) != 1 || got[0] != tpl {
		t.Fatal("template replaced or dropped by a failed decode")
	}
	before.check(t, tpl)

	msg, info, err := d.Decode("k", clean)
	if err != nil || info.FullParse || info.ValuesReparsed != 0 {
		t.Fatalf("clean resend: %+v, %v", info, err)
	}
	for i := 0; i < 30; i++ {
		if msg.LeafDouble(i) != float64(i) {
			t.Fatalf("leaf %d = %g after rollback", i, msg.LeafDouble(i))
		}
	}
}

// TestUndoThatCannotLexDropsTemplate covers the one retained form the
// region lexer cannot undo from: a numeric leaf the full parse accepted
// as a character reference. The template is given up, never left with
// values its bytes do not say.
func TestUndoThatCannotLexDropsTemplate(t *testing.T) {
	c := newStuffedDoubles(3)
	d := New(testSchema(c.msg))
	plain := c.body(t)
	r0 := bytes.Index(plain, []byte("<item>")) + len("<item>")
	exotic := append([]byte(nil), plain...)
	// Leaf 0 is "0</item>" and 23 bytes of padding: spell the 0 as an
	// entity and give four bytes of padding back.
	copy(exotic[r0:], "&#48;</item>")
	if _, info, err := d.Decode("k", exotic); err != nil || !info.FullParse {
		t.Fatalf("exotic template: %+v, %v", info, err)
	}
	tpl := templates(t, d, "k")[0]

	// Leaf 0 changes and lexes, then leaf 2 fails: undoing leaf 0 means
	// lexing "&#48;" as a double, which the region lexer refuses.
	evil := append([]byte(nil), plain...)
	evil[r0] = '7'
	evil[tpl.ranges[2].Start] = 'x'
	if _, _, err := d.Decode("k", evil); err == nil {
		t.Fatal("corrupt body decoded")
	}
	if d.TemplateCount() != 0 {
		t.Fatalf("templates = %d, want the half-undone one dropped", d.TemplateCount())
	}
	if d.SizeBytes() != 0 {
		t.Fatalf("resident bytes = %d after the drop", d.SizeBytes())
	}
	msg, info, err := d.Decode("k", exotic)
	if err != nil || !info.FullParse || msg.LeafDouble(0) != 0 {
		t.Fatalf("after drop: %+v, %v", info, err)
	}
}

func TestRelexEdgeValues(t *testing.T) {
	m := wire.NewMessage("urn:dd", "mixed")
	name := m.AddString("who", "aaaa<b>&")
	arr := m.AddDoubleArray("v", 4)
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	d := New(testSchema(m))
	send := func(wantReparsed int) *wire.Message {
		t.Helper()
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
		msg, info, err := d.Decode("k", sink.data)
		if err != nil {
			t.Fatal(err)
		}
		if wantReparsed >= 0 && (info.FullParse || info.ValuesReparsed != wantReparsed) {
			t.Fatalf("info %+v, want %d regions re-lexed on the fast path", info, wantReparsed)
		}
		return msg
	}
	arr.Set(0, -math.MaxFloat64) // 24 characters: the closing tag at its rightmost
	send(-1)

	// Escaped string of the same escaped length.
	name.Set("cc&c>d<c")
	if got := send(1).LeafString(0); got != "cc&c>d<c" {
		t.Fatalf("string = %q", got)
	}
	// The XSD names for the values strconv spells differently.
	arr.Set(1, math.Inf(1))
	arr.Set(2, math.Inf(-1))
	arr.Set(3, math.NaN())
	msg := send(3) // leaf 0 is the string, leaf 1+i is v[i]
	if !math.IsInf(msg.LeafDouble(2), 1) || !math.IsInf(msg.LeafDouble(3), -1) || !math.IsNaN(msg.LeafDouble(4)) {
		t.Fatalf("specials = %g %g %g", msg.LeafDouble(2), msg.LeafDouble(3), msg.LeafDouble(4))
	}
	// A value shrinking from 24 characters to 1 moves its closing tag 23
	// bytes left and turns the rest of the region into padding.
	arr.Set(0, 5)
	if got := send(1).LeafDouble(1); got != 5 {
		t.Fatalf("shrunken value = %g", got)
	}
	// NaN never compares equal to itself, but its bytes do: no re-lex.
	send(0)
}

// TestRelexHoldsTheDoubleGrammar overwrites one value region, in place and
// at the same length, with each form strconv.ParseFloat reads and the
// xsd:double grammar does not. The region lexer must refuse it, the full
// parse it falls back to must refuse it too, and the template must come
// through with the values its bytes say.
func TestRelexHoldsTheDoubleGrammar(t *testing.T) {
	m := wire.NewMessage("urn:dd", "doubles")
	arr := m.AddDoubleArray("v", 3)
	arr.Set(1, 0.25)
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	seed := append([]byte(nil), sink.data...)
	d := New(testSchema(m))
	if _, _, err := d.Decode("k", seed); err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(seed, []byte("0.25</item>"))
	width := bytes.IndexByte(seed[start+len("0.25</item>"):], '<') + len("0.25</item>")
	for _, form := range []string{"0x1p-2", "Infinity", "inf", "nan", "NAN", "1_0"} {
		body := append([]byte(nil), seed...)
		region := body[start : start+width]
		for i := range region {
			region[i] = ' '
		}
		copy(region, form+"</item>")
		if msg, info, err := d.Decode("k", body); err == nil {
			t.Errorf("%q decoded as %v (%+v)", form, msg.LeafDouble(1), info)
		}
		msg, info, err := d.Decode("k", seed)
		if err != nil || info.FullParse || msg.LeafDouble(1) != 0.25 {
			t.Fatalf("seed after %q: %v, %+v, %v", form, msg.LeafDouble(1), info, err)
		}
	}
	// The same edit with a form inside the grammar takes the fast path.
	body := append([]byte(nil), seed...)
	copy(body[start:], ".5e1</item>")
	msg, info, err := d.Decode("k", body)
	if err != nil || info.FullParse || info.ValuesReparsed != 1 || msg.LeafDouble(1) != 5 {
		t.Fatalf(".5e1: %v, %+v, %v", msg.LeafDouble(1), info, err)
	}
}

// TestFullParseReasons drives each way a decode leaves the fast path and
// checks the class it reports: the closed set a metric label is cut from.
func TestFullParseReasons(t *testing.T) {
	c := newStuffedDoubles(3)
	d := New(testSchema(c.msg))
	plain := c.body(t)
	decode := func(body []byte) Reason {
		t.Helper()
		_, info, _ := d.Decode("k", body)
		if info.FullParse != (info.Reason != ReasonNone) {
			t.Fatalf("info %+v: a reason without a full parse, or the reverse", info)
		}
		return info.Reason
	}
	edit := func(at int, with string) []byte {
		b := append([]byte(nil), plain...)
		copy(b[at:], with)
		return b
	}
	if got := decode(plain); got != ReasonNoTemplate {
		t.Fatalf("first body: %v, want no_template", got)
	}
	tpl := templates(t, d, "k")[0]
	r0, r2 := int(tpl.ranges[0].Start), int(tpl.ranges[2].Start)
	if got := decode(edit(r0, "7")); got != ReasonNone {
		t.Fatalf("one changed value: %v, want the fast path", got)
	}
	if got := decode(append(append([]byte(nil), plain...), ' ')); got != ReasonLength {
		t.Fatalf("longer body: %v, want length", got)
	}
	// A letter of the array's own tag name: outside every region. (The
	// body fails to parse; the reason is still why the fast path was
	// left.)
	if got := decode(edit(bytes.Index(plain, []byte("<v ")), "<w ")); got != ReasonMarkup {
		t.Fatalf("changed tag: %v, want markup", got)
	}
	if got := decode(edit(r2, "x")); got != ReasonValue {
		t.Fatalf("unlexable value: %v, want value", got)
	}
	// TestUndoThatCannotLexDropsTemplate's case: the retained body spells
	// leaf 0 in a form the region lexer cannot undo from.
	d = New(testSchema(c.msg))
	if got := decode(edit(r0, "&#48;</item>")); got != ReasonNoTemplate {
		t.Fatalf("exotic first body: %v, want no_template", got)
	}
	evil := edit(r0, "7")
	evil[r2] = 'x'
	if got := decode(evil); got != ReasonDropped {
		t.Fatalf("undo that cannot lex: %v, want dropped", got)
	}
	for r := ReasonNone; r < NumReasons; r++ {
		if (r.String() == "") != (r == ReasonNone) {
			t.Errorf("reason %d has label %q", r, r.String())
		}
	}
}
