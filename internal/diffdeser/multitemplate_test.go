package diffdeser

import (
	"bytes"
	"strings"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
)

// TestAlternatingStructuresStayFast verifies the multi-template LRU: a
// client alternating between two message shapes on one key keeps
// hitting the fast path after each shape has been seen once.
func TestAlternatingStructuresStayFast(t *testing.T) {
	build := func(n int) (*wire.Message, wire.DoubleArrayRef) {
		m := wire.NewMessage("urn:dd", "send")
		arr := m.AddDoubleArray("v", n)
		for i := 0; i < n; i++ {
			arr.Set(i, 1)
		}
		return m, arr
	}
	small, smallArr := build(10)
	big, bigArr := build(30)

	schema := &soapdec.Schema{Namespace: "urn:dd", Op: "send",
		Params: []soapdec.ParamSpec{{Name: "v", Type: wire.ArrayOf(wire.TDouble)}}}
	lookup := func(string) (*soapdec.Schema, bool) { return schema, true }

	sink := &captureSink{}
	cfg := core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}
	stubSmall := core.NewStub(cfg, sink)
	stubBig := core.NewStub(cfg, sink)
	d := New(lookup)

	render := func(stub *core.Stub, m *wire.Message) []byte {
		t.Helper()
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), sink.data...)
	}

	// Warm both shapes (two full parses).
	if _, info, err := d.Decode("k", render(stubSmall, small)); err != nil || !info.FullParse {
		t.Fatalf("warm small: %+v, %v", info, err)
	}
	if _, info, err := d.Decode("k", render(stubBig, big)); err != nil || !info.FullParse {
		t.Fatalf("warm big: %+v, %v", info, err)
	}
	if d.TemplateCount() != 2 {
		t.Fatalf("templates = %d", d.TemplateCount())
	}

	// Alternate with small updates: every decode is differential.
	for round := 0; round < 6; round++ {
		smallArr.Set(round%10, float64(round+2))
		msg, info, err := d.Decode("k", render(stubSmall, small))
		if err != nil || info.FullParse {
			t.Fatalf("round %d small: %+v, %v", round, info, err)
		}
		if msg.LeafDouble(round%10) != float64(round+2) {
			t.Fatalf("round %d small value lost", round)
		}
		bigArr.Set(round%30, float64(round+5))
		msg, info, err = d.Decode("k", render(stubBig, big))
		if err != nil || info.FullParse {
			t.Fatalf("round %d big: %+v, %v", round, info, err)
		}
		if msg.LeafDouble(round%30) != float64(round+5) {
			t.Fatalf("round %d big value lost", round)
		}
	}
	if d.TemplateCount() != 2 {
		t.Fatalf("templates grew to %d", d.TemplateCount())
	}
}

// TestFailedFastPathDoesNotPoisonTemplate reproduces the atomicity
// hazard: a same-length request whose early leaves parse but whose
// later region is corrupt must not leave stale values behind for the
// next fast-path hit.
func TestFailedFastPathDoesNotPoisonTemplate(t *testing.T) {
	m := wire.NewMessage("urn:dd", "send")
	arr := m.AddDoubleArray("v", 4)
	for i := 0; i < 4; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	d := New(testSchema(m))
	if _, _, err := d.Decode("k", sink.data); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), sink.data...)

	// Same length, leaf 0 changed to "2", leaf 3's value corrupted to
	// unparseable text of the same length.
	evil := append([]byte(nil), clean...)
	replaceFirst(t, evil, []byte("<item>1"), []byte("<item>2"))
	idx := lastIndex(evil, []byte("<item>1"))
	copy(evil[idx:], []byte("<item>x"))
	if _, _, err := d.Decode("k", evil); err == nil {
		// A full-parse fallback also fails (x is unparseable); the
		// decode errors out, which is correct.
		t.Fatal("corrupt message decoded successfully")
	}

	// The original bytes must still fast-path to the original values.
	msg, info, err := d.Decode("k", clean)
	if err != nil {
		t.Fatal(err)
	}
	if info.FullParse {
		t.Fatalf("clean resend fully parsed: %+v", info)
	}
	for i := 0; i < 4; i++ {
		if msg.LeafDouble(i) != 1 {
			t.Fatalf("leaf %d poisoned: %g", i, msg.LeafDouble(i))
		}
	}
}

func replaceFirst(t *testing.T, b, old, new []byte) {
	t.Helper()
	idx := bytes.Index(b, old)
	if idx < 0 {
		t.Fatalf("pattern %q not found", old)
	}
	copy(b[idx:], new)
}

func lastIndex(b, pat []byte) int {
	return bytes.LastIndex(b, pat)
}

// TestDoorkeeperRefusesALengthRotation rotates 2×replica.TemplatesPerOp+1
// body lengths through one key: the first replica.TemplatesPerOp lengths
// keep the key's templates and decode on the fast path from their second
// turn; every other is refused a template on every turn — a full parse
// that records no ranges, copies nothing and evicts nothing — and still
// decodes to the values sent. A new set of replica.TemplatesPerOp lengths
// then takes the key over: refused on its first turn, admitted on its
// second, fast on its third.
func TestDoorkeeperRefusesALengthRotation(t *testing.T) {
	schema := &soapdec.Schema{Namespace: "urn:dd", Op: "send",
		Params: []soapdec.ParamSpec{{Name: "v", Type: wire.ArrayOf(wire.TDouble)}}}
	d := New(func(string) (*soapdec.Schema, bool) { return schema, true })
	shape := func(n int) (*wire.Message, wire.DoubleArrayRef) {
		m := wire.NewMessage("urn:dd", "send")
		return m, m.AddDoubleArray("v", n)
	}
	decode := func(what string, n, round int, fast, refused bool) {
		t.Helper()
		m, arr := shape(n)
		arr.Set(n-1, float64(round)) // one digit: the body keeps its length
		msg, info, err := d.Decode("k", new(soapenv.Compiler).AppendMessage(nil, m, 0))
		if err != nil || info.FullParse == fast || info.Refused != refused {
			t.Fatalf("%s %d, round %d: %+v, %v; want fast %v, refused %v", what, n, round, info, err, fast, refused)
		}
		if !fast && info.Reason != ReasonLength && round > 0 {
			t.Fatalf("%s %d, round %d: reason %v, want length", what, n, round, info.Reason)
		}
		if got := msg.LeafDouble(n - 1); got != float64(round) {
			t.Fatalf("%s %d, round %d: decoded %v", what, n, round, got)
		}
	}
	var size int
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*replica.TemplatesPerOp+1; i++ {
			held := i < replica.TemplatesPerOp
			decode("length", 10+i, round, held && round > 0, !held)
		}
		if round == 0 {
			size = d.SizeBytes()
		} else if d.SizeBytes() != size || d.TemplateCount() != replica.TemplatesPerOp {
			t.Fatalf("round %d: %d templates, %d B; want %d and %d B", round, d.TemplateCount(), d.SizeBytes(), replica.TemplatesPerOp, size)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < replica.TemplatesPerOp; i++ {
			decode("new length", 40+i, round, round == 2, round == 0)
		}
	}
}

// TestDoorkeeperKeepsAdjacentLengthsApart fills a key's templates, then
// sends an even body length and the odd one after it: each is its own
// doorkeeper key, so the second is refused like the first — a mapping
// that merged them would admit it — and the first, sent again, is
// admitted.
func TestDoorkeeperKeepsAdjacentLengthsApart(t *testing.T) {
	schema := &soapdec.Schema{Namespace: "urn:dd", Op: "send",
		Params: []soapdec.ParamSpec{{Name: "s", Type: wire.TString}}}
	d := New(func(string) (*soapdec.Schema, bool) { return schema, true })
	body := func(n int) []byte {
		m := wire.NewMessage("urn:dd", "send")
		m.AddString("s", strings.Repeat("x", n))
		return new(soapenv.Compiler).AppendMessage(nil, m, 0)
	}
	for i := 0; i < replica.TemplatesPerOp; i++ {
		if _, info, err := d.Decode("k", body(10*i)); err != nil || info.Refused {
			t.Fatalf("template %d: %+v, %v", i, info, err)
		}
	}
	even := 100
	if len(body(even))%2 != 0 {
		even++
	}
	for i, c := range []struct {
		n       int
		refused bool
	}{{even, true}, {even + 1, true}, {even, false}} {
		b := body(c.n)
		if _, info, err := d.Decode("k", b); err != nil || info.Refused != c.refused {
			t.Fatalf("step %d, a %d-byte body: %+v, %v; want refused %v", i, len(b), info, err, c.refused)
		}
	}
}
