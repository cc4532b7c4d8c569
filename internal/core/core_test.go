package core

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/replica"
	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
	"bsoap/internal/xmlparse"
	"bsoap/internal/xsdlex"
)

// captureSink records everything sent through it.
type captureSink struct {
	data  []byte
	calls int
	fail  error
}

func (c *captureSink) Send(bufs net.Buffers) error {
	if c.fail != nil {
		return c.fail
	}
	c.calls++
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

// leafTexts extracts, in document order, the trimmed character data of
// every element that has no element children — exactly the scalar leaves
// of our wire format.
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
			t.Fatalf("parse: %v\ndoc: %.2000s", err, doc)
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

// expectedLeaves renders the canonical lexical form of every leaf of m.
func expectedLeaves(m *wire.Message) []string {
	out := make([]string, m.NumLeaves())
	for i := range out {
		switch m.LeafType(i).Kind {
		case wire.Int:
			out[i] = string(xsdlex.AppendInt(nil, m.LeafInt(i)))
		case wire.Double:
			out[i] = string(xsdlex.AppendDouble(nil, m.LeafDouble(i)))
		case wire.Bool:
			out[i] = string(xsdlex.AppendBool(nil, m.LeafBool(i)))
		case wire.String:
			out[i] = m.LeafString(i)
		}
	}
	return out
}

// checkRendered verifies the sink's last message parses to exactly the
// message's values.
func checkRendered(t *testing.T, m *wire.Message, doc []byte) {
	t.Helper()
	got := leafTexts(t, doc)
	want := expectedLeaves(m)
	if len(got) != len(want) {
		t.Fatalf("rendered %d leaves, message has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leaf %d: rendered %q, want %q", i, got[i], want[i])
		}
	}
}

// checkTemplate asserts the internal invariants of the stub's template.
func checkTemplate(t *testing.T, s *Stub, m *wire.Message) {
	t.Helper()
	tpl := s.Template(m.Operation(), m.Signature())
	if tpl == nil {
		t.Fatal("no template stored")
	}
	tpl.Buffer().CheckInvariants()
	tpl.Table().CheckInvariants()
}

func mioType() *wire.Type {
	return wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "y", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
}

func TestFirstTimeSendRendersAllTypes(t *testing.T) {
	m := wire.NewMessage("urn:bsoap-test", "mixed")
	m.AddInt("count", -42)
	m.AddDouble("ratio", 2.5)
	m.AddString("name", "a<b&c")
	m.AddBool("flag", true)
	st := m.AddStruct("mio", mioType())
	st.SetInt(0, 1)
	st.SetInt(1, 2)
	st.SetDouble(2, 3.5)
	arr := m.AddDoubleArray("vec", 5)
	for i := 0; i < 5; i++ {
		arr.Set(i, float64(i)*1.25)
	}

	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != FirstTime {
		t.Fatalf("match = %v", ci.Match)
	}
	if ci.Bytes != len(sink.data) {
		t.Fatalf("ci.Bytes = %d, sink got %d", ci.Bytes, len(sink.data))
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)
	if m.AnyDirty() {
		t.Fatal("dirty bits survive a successful send")
	}
	doc := string(sink.data)
	if !strings.HasPrefix(doc, `<SOAP-ENV:Envelope xmlns:SOAP-ENV=`) {
		t.Errorf("rendered message does not open with the envelope: %.60q", doc)
	}
	for _, want := range []string{
		`xmlns:SOAP-ENC="http://schemas.xmlsoap.org/soap/encoding/"`,
		`xmlns:ns1="urn:bsoap-test"`,
		`<ns1:mixed>`,
		`<count xsi:type="xsd:int">-42</count>`,
		`SOAP-ENC:arrayType="xsd:double[5]"`,
		`a&lt;b&amp;c`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("rendered message missing %q", want)
		}
	}
}

func TestMessageContentMatch(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 100)
	for i := 0; i < 100; i++ {
		arr.Set(i, float64(i))
	}
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), sink.data...)

	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != ContentMatch {
		t.Fatalf("second send match = %v, want ContentMatch", ci.Match)
	}
	if ci.ValuesRewritten != 0 {
		t.Fatalf("content match rewrote %d values", ci.ValuesRewritten)
	}
	if string(sink.data) != string(first) {
		t.Fatal("content match bytes differ from first send")
	}
}

func TestPerfectStructuralMatch(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 10)
	for i := 0; i < 10; i++ {
		arr.Set(i, 1.5) // 3 chars
	}
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}

	arr.Set(3, 2.5) // same width: in-place overwrite
	arr.Set(7, 9.5)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != StructuralMatch {
		t.Fatalf("match = %v", ci.Match)
	}
	if ci.ValuesRewritten != 2 {
		t.Fatalf("rewrote %d values, want 2", ci.ValuesRewritten)
	}
	if ci.Shifts != 0 || ci.TagShifts != 0 {
		t.Fatalf("unexpected shifts: %+v", ci)
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)
}

func TestClosingTagShiftOnShrink(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 3)
	arr.Set(0, 123456.0) // 6 chars
	arr.Set(1, 123456.0)
	arr.Set(2, 123456.0)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}

	arr.Set(1, 1) // 1 char: tag must move left, pad with whitespace
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != StructuralMatch || ci.TagShifts != 1 {
		t.Fatalf("ci = %+v", ci)
	}
	if !strings.Contains(string(sink.data), "<item>1</item>     <item>") {
		t.Fatalf("expected padded shrink, got %q", sink.data)
	}
	checkRendered(t, m, sink.data)
}

func TestShiftingOnGrowth(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 20)
	for i := 0; i < 20; i++ {
		arr.Set(i, 1) // minimal width
	}
	sink := &captureSink{}
	s := NewStub(Config{}, sink) // exact widths: growth must shift
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}

	arr.Set(5, -1.7976931348623157e+308) // maximal 24-char double
	arr.Set(12, 123.456)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != PartialMatch {
		t.Fatalf("match = %v", ci.Match)
	}
	if ci.Shifts != 2 {
		t.Fatalf("shifts = %d, want 2", ci.Shifts)
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)

	// Shrinking back must also stay correct (closing-tag shifts).
	arr.Set(5, 2)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)
}

func TestStuffingMaxWidthAvoidsShifting(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 10)
	for i := 0; i < 10; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	s := NewStub(Config{Width: WidthPolicy{Double: MaxWidth}}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}

	arr.Set(0, -1.7976931348623157e+308)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != StructuralMatch || ci.Shifts != 0 {
		t.Fatalf("stuffed growth shifted: %+v", ci)
	}
	checkRendered(t, m, sink.data)
}

func TestIntermediateWidthStuffing(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 4)
	for i := 0; i < 4; i++ {
		arr.Set(i, 5)
	}
	sink := &captureSink{}
	s := NewStub(Config{Width: WidthPolicy{Double: 18}}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	// A value of up to 18 chars fits without shifting.
	arr.Set(0, 0.1234567890123456) // 18 chars
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Shifts != 0 {
		t.Fatalf("18-char value shifted in 18-wide field: %+v", ci)
	}
	// A 24-char value must shift.
	arr.Set(1, -1.7976931348623157e+308)
	ci, err = s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Shifts != 1 {
		t.Fatalf("24-char value into 18-wide field: %+v", ci)
	}
	checkRendered(t, m, sink.data)
}

func TestStealingFromNeighbour(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 4)
	for i := 0; i < 4; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	// Stuff to 10 so neighbours have pad to donate; enable stealing.
	s := NewStub(Config{Width: WidthPolicy{Double: 10}, EnableStealing: true}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}

	arr.Set(0, 1.234567890123) // 15 chars: needs 5 beyond width 10
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Steals != 1 || ci.Shifts != 0 {
		t.Fatalf("expected one steal, got %+v", ci)
	}
	if ci.Match != PartialMatch {
		t.Fatalf("match = %v", ci.Match)
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)

	// The donor's remaining pad still absorbs its own growth.
	arr.Set(1, 12.25) // 5 chars, fits width 10-5=5
	ci, err = s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Shifts != 0 && ci.Steals != 0 {
		t.Fatalf("donor growth misbehaved: %+v", ci)
	}
	checkRendered(t, m, sink.data)
}

func TestStealingFallsBackToShifting(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 4)
	for i := 0; i < 4; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	// Exact widths: no neighbour has pad, stealing cannot help.
	s := NewStub(Config{EnableStealing: true}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	arr.Set(0, 123.456)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Steals != 0 || ci.Shifts != 1 {
		t.Fatalf("expected shift fallback, got %+v", ci)
	}
	checkRendered(t, m, sink.data)
}

func TestChunkSplittingUnderWorstCaseGrowth(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	n := 600
	arr := m.AddDoubleArray("v", n)
	for i := 0; i < n; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	s := NewStub(Config{
		Chunk: chunk.Config{ChunkSize: 1024, TrailingSlack: 64},
	}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	// Worst case: every value grows from 1 to 24 characters.
	for i := 0; i < n; i++ {
		arr.Set(i, -1.7976931348623157e+308)
	}
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Shifts != n {
		t.Fatalf("shifts = %d, want %d", ci.Shifts, n)
	}
	if ci.Splits == 0 {
		t.Fatal("worst-case growth with small chunks never split")
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)
}

func TestRebindDifferentMessageSameStructure(t *testing.T) {
	build := func(seed float64) *wire.Message {
		m := wire.NewMessage("urn:t", "send")
		arr := m.AddDoubleArray("v", 8)
		for i := 0; i < 8; i++ {
			arr.Set(i, seed+float64(i))
		}
		return m
	}
	m1 := build(1)
	m2 := build(100)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m1); err != nil {
		t.Fatal(err)
	}
	ci, err := s.Call(m2)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != StructuralMatch && ci.Match != PartialMatch {
		t.Fatalf("match = %v", ci.Match)
	}
	if ci.ValuesRewritten != 8 {
		t.Fatalf("rebind rewrote %d values, want all 8", ci.ValuesRewritten)
	}
	checkRendered(t, m2, sink.data)
	if s.store.templateCount() != 1 {
		t.Fatalf("templates = %d, want 1 (reused)", s.store.templateCount())
	}
}

func TestResizeCreatesNewTemplate(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 5)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	arr.Resize(9)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != FirstTime {
		t.Fatalf("resized send match = %v, want FirstTime", ci.Match)
	}
	checkRendered(t, m, sink.data)
	if s.store.templateCount() != 2 {
		t.Fatalf("templates = %d, want 2", s.store.templateCount())
	}

	// Returning to the original size reuses the old template.
	arr.Resize(5)
	ci, err = s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match == FirstTime {
		t.Fatal("old template not reused after resize back")
	}
	checkRendered(t, m, sink.data)
}

func TestTemplateLRUEviction(t *testing.T) {
	const cap = replica.TemplatesPerOp
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 1)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	for n := 1; n <= cap+1; n++ {
		arr.Resize(n)
		if _, err := s.Call(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.store.templateCount(); got != cap {
		t.Fatalf("templates = %d, want %d after eviction", got, cap)
	}
	// Size 1 was evicted; sending it again is a first-time send.
	arr.Resize(1)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != FirstTime {
		t.Fatalf("evicted structure match = %v", ci.Match)
	}
}

// TestDisableDiff serves every call from scratch through CallHeld(nil,
// m), the paper's "bSOAP Full Serialization": each call renders the whole
// message and the stub keeps no template.
func TestDisableDiff(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 10)
	for i := 0; i < 10; i++ {
		arr.Set(i, float64(i))
	}
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	for k := 0; k < 3; k++ {
		ci, err := s.CallHeld(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Match != FullSerialization {
			t.Fatalf("match = %v", ci.Match)
		}
		checkRendered(t, m, sink.data)
	}
	if s.store.templateCount() != 0 {
		t.Fatal("a from-scratch call stored a template")
	}
}

// TestCallHeldReplacesTemplateOfAnotherShape hands CallHeld a held
// template of another structure than the message's: another message
// object, and the bound object after ResizeArray. Either call is an
// ordinary first-time send, not a degraded one, writes what the one-pass
// renderer writes, and leaves the new structure's template held, the old
// one released: releasing the new one returns every arena.
func TestCallHeldReplacesTemplateOfAnotherShape(t *testing.T) {
	mk := func(n int) *wire.Message {
		m := wire.NewMessage("urn:t", "op")
		arr := m.AddDoubleArray("v", n)
		for i := 0; i < n; i++ {
			arr.Set(i, float64(i)+0.25)
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		other func(m *wire.Message) *wire.Message
	}{
		{"another message", func(*wire.Message) *wire.Message { return mk(7) }},
		{"resized", func(m *wire.Message) *wire.Message { m.ResizeArray(0, 7); return m }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sink, pool := overflowStub(Config{})
			m := mk(5)
			var held *Template
			if ci, err := s.CallHeld(&held, m); err != nil || ci.Match != FirstTime {
				t.Fatalf("build: %v, %v", ci.Match, err)
			}
			first := held
			m = tc.other(m)
			ci, err := s.CallHeld(&held, m)
			if err != nil || ci.Match != FirstTime || ci.Degraded {
				t.Fatalf("other shape: %v (degraded %v), %v; want a first-time send", ci.Match, ci.Degraded, err)
			}
			if held == nil || held == first || held.sig != m.Signature() {
				t.Fatal("the other shape's template is not the one held")
			}
			if want := new(soapenv.Compiler).AppendMessage(nil, m, 0); !bytes.Equal(sink.data, want) {
				t.Fatalf("sent %d bytes that differ from the %d a from-scratch rendering writes", len(sink.data), len(want))
			}
			held.Release()
			if live := pool.LiveBytes(); live != 0 {
				t.Fatalf("%d B of arenas still out after the held template was released", live)
			}
		})
	}
}

func TestSendErrorPreservesDirtyBits(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 4)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	arr.Set(2, 42)
	sink.fail = errors.New("link down")
	if _, err := s.Call(m); err == nil {
		t.Fatal("send error not propagated")
	}
	if !m.AnyDirty() {
		t.Fatal("dirty bits cleared despite failed send")
	}
	sink.fail = nil
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	// The failed send poisoned the template, so the retry is a degraded
	// first-time send carrying the preserved change — not a diff against
	// bytes whose delivery state is unknown.
	if ci.Match != FirstTime || !ci.Degraded {
		t.Fatalf("retry: match=%v degraded=%v, want degraded first-time", ci.Match, ci.Degraded)
	}
	checkRendered(t, m, sink.data)
}

// switchSink forwards each send to whichever destination is current:
// the way one stub serves several destinations (the pool's per-call
// sink does the same).
type switchSink struct{ to Sink }

func (w *switchSink) Send(bufs net.Buffers) error { return w.to.Send(bufs) }

// TestSharedStoreAcrossStubs pins cross-destination reuse (paper §6):
// one serialization sent to a second destination is a content match
// with byte-identical output, through one stub whose sink is switched.
func TestSharedStoreAcrossStubs(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 16)
	for i := 0; i < 16; i++ {
		arr.Set(i, float64(i))
	}
	sinkA, sinkB := &captureSink{}, &captureSink{}
	sw := &switchSink{to: sinkA}
	s := NewStub(Config{}, sw)

	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	sw.to = sinkB
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != ContentMatch {
		t.Fatalf("second destination match = %v", ci.Match)
	}
	if string(sinkA.data) != string(sinkB.data) {
		t.Fatal("destinations received different bytes from one template")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 4)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	s.Call(m)
	s.Call(m)
	arr.Set(0, 7)
	s.Call(m)
	st := s.Stats()
	if st.Calls != 3 || st.FirstTimeSends != 1 || st.ContentMatches != 1 || st.StructuralMatches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent == 0 || st.ValuesRewritten != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMatchKindString(t *testing.T) {
	for k, want := range map[MatchKind]string{
		FirstTime:         "first-time send",
		ContentMatch:      "message content match",
		StructuralMatch:   "perfect structural match",
		PartialMatch:      "partial structural match",
		FullSerialization: "full serialization",
		MatchKind(99):     "unknown match",
	} {
		if k.String() != want {
			t.Errorf("MatchKind(%d).String() = %q", int(k), k.String())
		}
	}
}

func TestMIOArrayEndToEnd(t *testing.T) {
	m := wire.NewMessage("urn:t", "sendMIOs")
	arr := m.AddStructArray("mios", mioType(), 50)
	for i := 0; i < 50; i++ {
		arr.SetInt(i, 0, int32(i))
		arr.SetInt(i, 1, int32(i*2))
		arr.SetDouble(i, 2, float64(i)+0.25)
	}
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)

	// Re-serialize only the doubles, as Figure 4 does.
	for i := 0; i < 50; i += 2 {
		arr.SetDouble(i, 2, float64(i)+0.75)
	}
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.ValuesRewritten != 25 {
		t.Fatalf("rewrote %d, want 25", ci.ValuesRewritten)
	}
	checkRendered(t, m, sink.data)
}

func TestStringGrowthShifts(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	sref := m.AddString("s", "short")
	m.AddInt("after", 7)
	sink := &captureSink{}
	s := NewStub(Config{}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	sref.Set("a much longer string value <with> markup & entities")
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Shifts != 1 {
		t.Fatalf("string growth: %+v", ci)
	}
	checkRendered(t, m, sink.data)
	sref.Set("tiny")
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)
}
