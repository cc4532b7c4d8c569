package serverpool

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"bsoap/internal/diffdeser"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/soapenv"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// The tests below hold the keeper's unnamed path: requests that name no
// template, held under ids derived from (operation, body length).

// unnamedKeeper returns a decoding keeper and the operation its unnamed
// bodies are decoded as: sum over a double array, or the operation
// schema declares.
func unnamedKeeper(schema *soapdec.Schema) (*baseKeeper, *operation) {
	rt := New(Options{})
	rt.Register(schema, sumFactory)
	return newKeeper(rt.lookupSchema, nil), rt.ops[schema.Op]
}

// derivedBases counts the bases k holds under derived ids.
func derivedBases(k *baseKeeper) int {
	n := 0
	k.bases.FromFront(func(tid uint64, _ *deltaBase) bool {
		if tid&derived != 0 {
			n++
		}
		return true
	})
	return n
}

// TestAlternatingStructuresStayFast: a client alternating between two
// message shapes of one operation keeps hitting the fast path once each
// shape has been seen, each held under its own length.
func TestAlternatingStructuresStayFast(t *testing.T) {
	k, op := unnamedKeeper(sumSchema())
	small, big := newClient(10), newClient(30)
	for _, c := range []*client{small, big} {
		if _, info, err := k.unnamed(op, c.body(t)); err != nil || !info.FullParse {
			t.Fatalf("warm %d: %+v, %v", c.arr.Len(), info, err)
		}
	}
	if n := derivedBases(k); n != 2 {
		t.Fatalf("%d bases held, want 2", n)
	}
	for round := 0; round < 6; round++ {
		for _, c := range []*client{small, big} {
			i, v := round%c.arr.Len(), float64(round+2)
			c.arr.Set(i, v)
			msg, info, err := k.unnamed(op, c.body(t))
			if err != nil || info.FullParse || info.ValuesReparsed != 1 {
				t.Fatalf("round %d, %d leaves: %+v, %v", round, c.arr.Len(), info, err)
			}
			if msg.LeafDouble(i) != v {
				t.Fatalf("round %d, %d leaves: leaf %d = %g, want %g", round, c.arr.Len(), i, msg.LeafDouble(i), v)
			}
		}
	}
	if n := derivedBases(k); n != 2 {
		t.Fatalf("%d bases held after the rounds, want 2", n)
	}
}

// TestFailedFastPathDoesNotPoisonTemplate sends a body of the held length
// whose first leaf lexes and whose last does not: the fast path sets the
// first before it fails, and the full parse it falls to fails too. The
// base is then refreshed or dropped — never left holding values no body
// says — so the clean body decodes to its own values again.
func TestFailedFastPathDoesNotPoisonTemplate(t *testing.T) {
	k, op := unnamedKeeper(sumSchema())
	c := newClient(4)
	clean := c.body(t)
	if _, _, err := k.unnamed(op, clean); err != nil {
		t.Fatal(err)
	}
	evil := bytes.Clone(clean)
	evil[bytes.Index(evil, []byte("<item>"))+len("<item>")] = '9'
	evil[bytes.LastIndex(evil, []byte("<item>"))+len("<item>")] = 'x'
	if _, info, err := k.unnamed(op, evil); err == nil {
		t.Fatalf("corrupt body decoded: %+v", info)
	}
	if n := derivedBases(k); n != 0 || k.bytes != 0 {
		t.Fatalf("%d bases, %d B held after the failed decode; want the base dropped", n, k.bytes)
	}
	for i := 0; i < 2; i++ {
		msg, info, err := k.unnamed(op, clean)
		if err != nil || info.FullParse != (i == 0) {
			t.Fatalf("clean body %d: %+v, %v", i, info, err)
		}
		for leaf := 0; leaf < 4; leaf++ {
			if msg.LeafDouble(leaf) != float64(leaf) {
				t.Fatalf("clean body %d: leaf %d = %g", i, leaf, msg.LeafDouble(leaf))
			}
		}
	}
}

// TestDoorkeeperRefusesALengthRotation rotates 2×reg.TemplatesPerOp+1
// body lengths through one operation: the first reg.TemplatesPerOp
// lengths keep the operation's templates and decode on the fast path from
// their second turn; every other is refused a template on every turn — a
// full parse that records no ranges, copies nothing and evicts nothing —
// and still decodes to the values sent. A new set of reg.TemplatesPerOp
// lengths then takes the operation over: refused on its first turn,
// admitted on its second, fast on its third.
func TestDoorkeeperRefusesALengthRotation(t *testing.T) {
	k, op := unnamedKeeper(sumSchema())
	decode := func(what string, n, round int, fast, refused bool) {
		t.Helper()
		c := newClient(n)
		c.arr.Set(n-1, float64(round)) // one digit: the body keeps its length
		msg, info, err := k.unnamed(op, c.body(t))
		if err != nil || info.FullParse == fast || info.Refused != refused {
			t.Fatalf("%s %d, round %d: %+v, %v; want fast %v, refused %v", what, n, round, info, err, fast, refused)
		}
		if !fast && info.Reason != diffdeser.ReasonLength && round > 0 {
			t.Fatalf("%s %d, round %d: reason %v, want length", what, n, round, info.Reason)
		}
		if got := msg.LeafDouble(n - 1); got != float64(round) {
			t.Fatalf("%s %d, round %d: decoded %v", what, n, round, got)
		}
	}
	var size int64
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*reg.TemplatesPerOp+1; i++ {
			held := i < reg.TemplatesPerOp
			decode("length", 10+i, round, held && round > 0, !held)
		}
		if round == 0 {
			size = k.bytes
		} else if k.bytes != size || derivedBases(k) != reg.TemplatesPerOp {
			t.Fatalf("round %d: %d bases, %d B; want %d and %d B", round, derivedBases(k), k.bytes, reg.TemplatesPerOp, size)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < reg.TemplatesPerOp; i++ {
			decode("new length", 40+i, round, round == 2, round == 0)
		}
	}
	if n := derivedBases(k); n != reg.TemplatesPerOp {
		t.Fatalf("%d bases after the takeover, want %d", n, reg.TemplatesPerOp)
	}
}

// TestDoorkeeperKeepsAdjacentLengthsApart fills an operation's templates,
// then sends an even body length and the odd one after it: each is its
// own doorkeeper key, so the second is refused like the first — a mapping
// that merged them would admit it — and the first, sent again, is
// admitted.
func TestDoorkeeperKeepsAdjacentLengthsApart(t *testing.T) {
	schema := &soapdec.Schema{Namespace: "urn:dd", Op: "send",
		Params: []soapdec.ParamSpec{{Name: "s", Type: wire.TString}}}
	k, op := unnamedKeeper(schema)
	body := func(n int) []byte {
		m := wire.NewMessage("urn:dd", "send")
		m.AddString("s", strings.Repeat("x", n))
		return new(soapenv.Compiler).AppendMessage(nil, m, 0)
	}
	for i := 0; i < reg.TemplatesPerOp; i++ {
		if _, info, err := k.unnamed(op, body(10*i)); err != nil || info.Refused {
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
		if _, info, err := k.unnamed(op, b); err != nil || info.Refused != c.refused {
			t.Fatalf("step %d, a %d-byte body: %+v, %v; want refused %v", i, len(b), info, err, c.refused)
		}
	}
}

// TestClientsCannotNameDerivedIDs: a sync naming an id in the derived
// space is decoded as an unnamed request and not acknowledged, and a
// patch naming the very id the server holds the body under is answered
// 409/resync and leaves that body as it was.
func TestClientsCannotNameDerivedIDs(t *testing.T) {
	rt := newSumRuntime(Options{Delta: true})
	h := rt.HTTPHandler()
	c := newClient(8)
	body := c.body(t)
	tid := derived | uint64(rt.ops["sum"].id)<<32 | uint64(len(body))
	sync := &transport.Request{Method: "POST", ConnID: 1, Body: body,
		DeltaMode: transport.DeltaSync, DeltaTID: tid, DeltaEpoch: 0}
	if _, err := h(sync); err != nil {
		t.Fatal(err)
	}
	if sync.DeltaAck {
		t.Fatal("a sync naming a derived id was acknowledged")
	}
	if st := rt.Stats(); st.DeltaSyncs != 0 || st.FullParses != 1 {
		t.Fatalf("%d syncs, %d full parses; want 0 and 1", st.DeltaSyncs, st.FullParses)
	}
	// The same body, unnamed, finds what the sync left.
	if _, err := rt.Handle(1, "", body); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.DiffDecodes != 1 {
		t.Fatalf("%d differential decodes, want the unnamed resend served from the held body", st.DiffDecodes)
	}

	c.arr.Set(0, 5)
	next := c.body(t)
	patch := &transport.Request{Method: "POST", ConnID: 1, DeltaMode: transport.DeltaPatch,
		Body: patchFrame(body, next, tid, 0, 1)}
	if _, err := h(patch); !errors.Is(err, wire.ErrDeltaResync) {
		t.Fatalf("a patch naming a derived id: %v, want a resync", err)
	}
	slot, r := rt.acquire(reg.Key{Conn: 1})
	b, ok := r.bases.bases.Get(tid)
	rt.release(slot)
	if !ok || !bytes.Equal(b.body, body) {
		t.Fatal("a refused patch changed the body held under its derived id")
	}
}

// patchFrame encodes next as one patch frame against base: a region from
// the first to the last differing byte.
func patchFrame(base, next []byte, tid, baseEpoch, newEpoch uint64) []byte {
	lo, hi := 0, len(next)
	for lo < hi && base[lo] == next[lo] {
		lo++
	}
	for hi > lo && base[hi-1] == next[hi-1] {
		hi--
	}
	f := wire.AppendDeltaHeader(nil, tid, baseEpoch, newEpoch, len(next), wire.DeltaCRC(next), 1)
	f = wire.AppendDeltaRegionHeader(f, lo, hi-lo)
	return append(f, next[lo:hi]...)
}

// TestSelfCheckFailureDropsTheBase plants a wrong value in the template
// of a body held under a derived id. With SelfCheck on, the next request
// that the fast path serves from it fails and is counted; the base is
// given up, so the request after that decodes to the values sent.
func TestSelfCheckFailureDropsTheBase(t *testing.T) {
	var seen *wire.Message
	var sums []float64
	rt := New(Options{SelfCheck: true})
	rt.Register(sumSchema(), func() Handler {
		sum := sumFactory()
		return func(m *wire.Message) (*wire.Message, error) {
			seen = m
			resp, err := sum(m)
			sums = append(sums, resp.LeafDouble(0))
			return resp, err
		}
	})
	body := newClient(4).body(t) // values 0, 1, 2, 3
	if _, err := rt.Handle(1, "", body); err != nil {
		t.Fatal(err)
	}
	seen.SetLeafDouble(2, 1e6) // the held template's own message
	if _, err := rt.Handle(1, "", body); err == nil || !strings.Contains(err.Error(), "self-check") {
		t.Fatalf("fast path over a planted value: %v, want a self-check failure", err)
	}
	if st := rt.Stats(); st.SelfCheckFails != 1 || st.DiffDecodes != 1 {
		t.Fatalf("%d self-check failures of %d fast decodes, want 1 of 1", st.SelfCheckFails, st.DiffDecodes)
	}
	if _, err := rt.Handle(1, "", body); err != nil {
		t.Fatalf("request after the failure: %v", err)
	}
	if st := rt.Stats(); st.FullParses != 2 || st.SelfCheckFails != 1 {
		t.Fatalf("%d full parses, %d self-check failures; want the base re-parsed", st.FullParses, st.SelfCheckFails)
	}
	if len(sums) != 2 || sums[1] != 6 {
		t.Fatalf("handler saw sums %v, want the second 6", sums)
	}
}

// TestSelfCheckAcceptsNaN: a double leaf reading NaN is the same value on
// the fast path and in the reference parse, though NaN != NaN.
func TestSelfCheckAcceptsNaN(t *testing.T) {
	rt := newSumRuntime(Options{SelfCheck: true})
	c := newClient(4)
	c.arr.Set(1, math.NaN())
	body := c.body(t)
	for i := 0; i < 3; i++ {
		if _, err := rt.Handle(1, "", body); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := rt.Stats(); st.DiffDecodes != 2 || st.SelfCheckFails != 0 {
		t.Fatalf("%d fast decodes, %d self-check failures; want 2 and 0", st.DiffDecodes, st.SelfCheckFails)
	}
}
