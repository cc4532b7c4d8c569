package pool

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"bsoap/internal/core"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapenv"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// TestShardedStoreEvictsColdSignatures proves the per-operation LRU cap
// behind its doorkeeper: a new signature of a full operation is first
// refused — sent from scratch, nothing built, nothing evicted — and gets
// in on its next call, evicting the cold (operation, signature) replica
// set while the recently used one stays warm, so the store cannot grow
// without bound under varying message shapes.
func TestShardedStoreEvictsColdSignatures(t *testing.T) {
	const cap = reg.TemplatesPerOp
	p, _ := newAckPool(t, Options{Replicas: 1})

	// Each array length is a distinct structural signature of the same
	// operation: the cap's worth, and one more.
	shapes := make([]*workload.Doubles, cap+1)
	for i := range shapes {
		shapes[i] = workload.NewDoubles(4+i, workload.FillIntermediate)
	}
	first, second, third, next := shapes[0], shapes[1], shapes[2], shapes[cap]

	call := func(what string, d *workload.Doubles, want core.MatchKind, evictions int64) {
		t.Helper()
		if ci, err := p.Call(d.Msg); err != nil || ci.Match != want {
			t.Fatalf("%s: %v %v, want %v", what, ci.Match, err, want)
		}
		if got := p.Stats().TemplateEvictions; got != evictions {
			t.Fatalf("%s: evictions = %d, want %d", what, got, evictions)
		}
	}
	for _, d := range shapes[:cap] {
		call("warmup", d, core.FirstTime, 0)
	}
	// Touch the first so the second becomes the LRU tail.
	call("recency touch", first, core.ContentMatch, 0)
	// The next shape finds the operation full: refused once, then
	// admitted over the second.
	call("next refused", next, core.FullSerialization, 0)
	call("next admitted", next, core.FirstTime, 1)

	if got := p.Entries(); got != cap {
		t.Fatalf("entries = %d, want %d (per-op cap)", got, cap)
	}
	call("first after next", first, core.ContentMatch, 1)
	// The second was evicted: it goes through the doorkeeper like any new
	// shape, and its admission evicts the third, now the tail.
	call("second refused", second, core.FullSerialization, 1)
	call("second admitted", second, core.FirstTime, 2)
	call("third refused", third, core.FullSerialization, 2)
	if st := p.Stats(); st.TemplateRefusals != 3 || st.FullSerializations != 3 {
		t.Fatalf("refusals %d, full serializations %d, want 3 and 3", st.TemplateRefusals, st.FullSerializations)
	}
}

// TestBudgetEvictionDegradesToFTS is the client half of the
// eviction-under-budget-pressure contract: a replica set evicted by the
// byte budget is rebuilt from scratch on its message's next call — a
// degraded first-time send carrying the message's current values, never
// a diff against released template bytes.
func TestBudgetEvictionDegradesToFTS(t *testing.T) {
	// A 1-byte budget admits each entry only by self-exemption and
	// condemns everything else at every release.
	st, ps := newShardedStore(1, 1, 1, nil), newSlot(core.Config{})
	dA := workload.NewDoubles(8, workload.FillIntermediate)
	dB := workload.NewDoubles(9, workload.FillIntermediate)

	call := func(d *workload.Doubles) (core.CallInfo, []byte) {
		t.Helper()
		ci, body, _ := through(t, st, ps, d.Msg)
		return ci, body
	}

	if ci, _ := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("call A1 match = %v, want first-time", ci.Match)
	}
	if ci, _ := call(dB); ci.Match != core.FirstTime {
		t.Fatalf("call B match = %v, want first-time", ci.Match)
	}
	if got := st.metrics.c[cBudgetEvictions].Load(); got == 0 {
		t.Fatal("expected a budget eviction after B's release")
	}
	if c := st.reg.Counters(); c.Pending != 0 {
		t.Fatalf("pending releases = %d, want 0 (no call in flight)", c.Pending)
	}

	// A's entry is gone and its arenas released: the next call must be a
	// fresh first-time send with A's current values, not a diff.
	dA.SetAll(777.25)
	ci, b := call(dA)
	if ci.Match != core.FirstTime {
		t.Fatalf("call A2 match = %v, want degraded first-time", ci.Match)
	}
	if !bytes.Contains(b, []byte("777.25")) {
		t.Fatalf("call A2 payload missing current values:\n%s", b)
	}
}

// TestBudgetEvictionWithInFlightCall condemns an entry while a call
// holds one of its engines: the call must finish serializing against
// live arenas (under -tags membufpoison a use-after-release would put
// 0xDB poison bytes on the wire), and the arenas are released only when
// the in-flight reference returns.
func TestBudgetEvictionWithInFlightCall(t *testing.T) {
	st, ps := newShardedStore(1, 1, 1, nil), newSlot(core.Config{})
	dA := workload.NewDoubles(8, workload.FillIntermediate)
	dB := workload.NewDoubles(9, workload.FillIntermediate)

	call := func(d *workload.Doubles) core.CallInfo {
		t.Helper()
		ci, _, _ := through(t, st, ps, d.Msg)
		return ci
	}

	// Warm A, then take its engine as an in-flight call would.
	if ci := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("warmup match = %v", ci.Match)
	}
	rA := st.acquire(dA.Msg)

	// B's release must chase the budget; with A in flight only the
	// last-resort tier can pay, condemning A's entry under our feet.
	call(dB)
	if got := st.metrics.c[cBudgetEvictions].Load(); got == 0 {
		t.Fatal("expected a budget eviction while A was in flight")
	}
	if c := st.reg.Counters(); c.Pending == 0 {
		t.Fatal("condemned in-flight entry should be pending arena release")
	}

	// The held engine still diffs and sends against live template bytes.
	var buf bytes.Buffer
	dA.SetAll(4321.5)
	if _, err := serveHeld(st, ps, rA, dA.Msg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.Contains(out, []byte("4321.5")) {
		t.Fatalf("in-flight call payload missing current values:\n%s", out)
	}
	for _, c := range out {
		if c == 0xDB {
			t.Fatal("poison byte on the wire: template arenas were released under an in-flight call")
		}
	}
	if c := st.reg.Counters(); c.Pending != 0 {
		t.Fatalf("pending releases = %d, want 0 after the in-flight call returned", c.Pending)
	}

	// The condemned entry is gone: A's next call rebuilds fresh.
	if ci := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("post-eviction match = %v, want first-time", ci.Match)
	}
}

// TestFailedSendsChargeTheirTemplates: a call whose send fails still
// leaves its engine the template it built (suspect, to be rebuilt by the
// next call), so the registry must charge it. Over a pool whose every
// send fails, the registry's bytes are the engines' template footprints
// to the byte.
func TestFailedSendsChargeTheirTemplates(t *testing.T) {
	dead := func(string, string) (net.Conn, error) {
		c, peer := net.Pipe()
		peer.Close()
		return c, nil
	}
	p, err := New(Options{Addr: "dead", Size: 1, Replicas: 2, Sender: transport.SenderOptions{Dialer: dead}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		d := workload.NewDoubles(500+i, workload.FillIntermediate)
		for k := 0; k < 2; k++ {
			if _, err := p.Call(d.Msg); err == nil {
				t.Fatal("a call through a dead connection succeeded")
			}
		}
	}
	var held int64
	p.store.reg.Each(func(_ reg.Key, e *storeEntry) {
		e.mu.Lock()
		engines := e.engines
		e.mu.Unlock()
		for _, r := range engines {
			r.mu.Lock()
			if r.tpl != nil {
				held += int64(r.tpl.Footprint())
			}
			r.mu.Unlock()
		}
	})
	if got := p.store.reg.Counters().Bytes; got != held || held == 0 {
		t.Fatalf("registry charges %d B, the engines hold %d B of templates", got, held)
	}
}

// admissionPool is a one-connection, one-replica pool at a loopback
// server that keeps the last body it received.
func admissionPool(t *testing.T) (*Pool, *lastBody) {
	t.Helper()
	return lastBodyPool(t, Options{Size: 1, Replicas: 1})
}

// lastBodyPool is a pool of opts at a loopback server that keeps the
// last body it received.
func lastBodyPool(t *testing.T, opts Options) (*Pool, *lastBody) {
	t.Helper()
	last := new(lastBody)
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Respond: true,
		Handler: func(req *transport.Request) ([]byte, error) {
			b := bytes.Clone(req.Body)
			last.b.Store(&b)
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	opts.Addr = srv.Addr()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, last
}

// lastBody is the body a server handler stored last.
type lastBody struct{ b atomic.Pointer[[]byte] }

func (l *lastBody) Reset() { l.b.Store(nil) }

func (l *lastBody) Bytes() []byte {
	if b := l.b.Load(); b != nil {
		return *b
	}
	return nil
}

// rotate calls every shape once, in order, and checks each call's match
// class: want(i) for shape i. A refused call's body must be exactly what
// the one from-scratch renderer makes of the message.
func rotate(t *testing.T, p *Pool, last *lastBody, shapes []*workload.Doubles, want func(i int) core.MatchKind) {
	t.Helper()
	for i, d := range shapes {
		body := new(soapenv.Compiler).AppendMessage(nil, d.Msg, 0)
		last.Reset()
		ci, err := p.Call(d.Msg)
		if err != nil || ci.Match != want(i) {
			t.Fatalf("shape %d: %v %v, want %v", i, ci.Match, err, want(i))
		}
		if ci.Match == core.FullSerialization && !bytes.Equal(last.Bytes(), body) {
			t.Fatalf("shape %d: refused body differs from AppendMessage's", i)
		}
	}
}

// TestDoorkeeperKeepsTheTemplatesInUse rotates 2×cap+1 shapes of one
// operation through the pool, the benchmark's reshape_cold in small: the
// first cap shapes take the cap's templates and stay warm, and the other
// cap+1 are refused on every call — between two turns of a shape come
// cap other refusals, which push it out of the doorkeeper's ring — so
// they go out from scratch, and nothing is ever evicted. (With exactly
// 2×cap shapes the refused half would fit the ring: it would be admitted
// on its second turn and displace the first half, as the phase change
// below does.)
func TestDoorkeeperKeepsTheTemplatesInUse(t *testing.T) {
	const perOp = reg.TemplatesPerOp
	p, last := admissionPool(t)
	shapes := make([]*workload.Doubles, 2*perOp+1)
	for i := range shapes {
		shapes[i] = workload.NewDoubles(4+i, workload.FillIntermediate)
	}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		rotate(t, p, last, shapes, func(i int) core.MatchKind {
			switch {
			case i >= perOp:
				return core.FullSerialization
			case r == 0:
				return core.FirstTime
			}
			return core.ContentMatch
		})
	}
	st := p.Stats()
	if st.TemplateEvictions != 0 || st.FirstTimeSends != perOp || st.TemplateRefusals != rounds*(perOp+1) {
		t.Fatalf("evictions %d, first-time sends %d, refusals %d; want 0, %d and %d",
			st.TemplateEvictions, st.FirstTimeSends, st.TemplateRefusals, perOp, rounds*(perOp+1))
	}
	if got := p.DebugTemplates(); got.Refused != rounds*(perOp+1) || got.Entries != perOp {
		t.Fatalf("/debug/templates: %d entries, %d refused; want %d and %d", got.Entries, got.Refused, perOp, rounds*(perOp+1))
	}
}

// TestDoorkeeperAdmitsANewSteadySet changes phase: after a set of cap
// shapes has settled, a new set of cap shapes takes over the operation.
// Each new shape is refused on its first turn and admitted on its second,
// evicting one old shape each, and is warm from the third; the old
// shapes, come back, are now the ones refused.
func TestDoorkeeperAdmitsANewSteadySet(t *testing.T) {
	const perOp = reg.TemplatesPerOp
	p, last := admissionPool(t)
	old, next := make([]*workload.Doubles, perOp), make([]*workload.Doubles, perOp)
	for i := range old {
		old[i] = workload.NewDoubles(4+i, workload.FillIntermediate)
		next[i] = workload.NewDoubles(4+perOp+i, workload.FillIntermediate)
	}
	rotate(t, p, last, old, func(int) core.MatchKind { return core.FirstTime })
	rotate(t, p, last, old, func(int) core.MatchKind { return core.ContentMatch })
	for _, want := range []core.MatchKind{core.FullSerialization, core.FirstTime, core.ContentMatch} {
		rotate(t, p, last, next, func(int) core.MatchKind { return want })
	}
	if st := p.Stats(); st.TemplateEvictions != perOp || st.TemplateRefusals != perOp {
		t.Fatalf("evictions %d, refusals %d; want %d and %d", st.TemplateEvictions, st.TemplateRefusals, perOp, perOp)
	}
	rotate(t, p, last, old[:1], func(int) core.MatchKind { return core.FullSerialization })
}

// TestEngineTemplateServesAnySlot: a template belongs to its engine, not
// to a connection slot. With two slots and one replica, serial calls
// alternate slots (each call checks its slot in behind the other), so
// the template built through one slot's stub is diffed through the
// other's, and every body is the from-scratch rendering of the message.
func TestEngineTemplateServesAnySlot(t *testing.T) {
	p, last := lastBodyPool(t, Options{Size: 2, Replicas: 1})
	rng := rand.New(rand.NewSource(45))
	d := workload.NewDoubles(16, workload.FillIntermediate)
	for i := 0; i < 8; i++ {
		if i > 0 {
			change(rng, d, 1+rng.Intn(3))
		}
		ci, err := p.Call(d.Msg)
		if err != nil {
			t.Fatal(err)
		}
		if (ci.Match == core.FirstTime) != (i == 0) {
			t.Fatalf("call %d: %v", i, ci.Match)
		}
		checkBody(t, core.Config{}, d.Msg, last.Bytes(), fmt.Sprintf("call %d", i))
	}
	if n := p.TemplateCount(); n != 1 {
		t.Fatalf("%d templates, want the one engine's", n)
	}
	var builds int64
	for i := 0; i < 2; i++ {
		ps := <-p.senders.slots
		defer func() { p.senders.slots <- ps }()
		st := ps.stub.Stats()
		builds += st.FirstTimeSends
		if st.Calls != 4 || st.StructuralMatches+st.PartialMatches == 0 {
			t.Fatalf("slot %d: %d calls, %d structural and %d partial matches; want 4 calls and a diff",
				i, st.Calls, st.StructuralMatches, st.PartialMatches)
		}
	}
	if builds != 1 {
		t.Fatalf("%d template builds across the slots, want 1", builds)
	}
}
