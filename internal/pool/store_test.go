package pool

import (
	"bytes"
	"testing"

	"bsoap/internal/core"
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
	p, _ := newDiscardPool(t, Options{
		Replicas: 1,
		Config:   core.Config{MaxTemplatesPerOp: 2},
	})

	// Each array length is a distinct structural signature of the same
	// operation.
	dA := workload.NewDoubles(4, workload.FillIntermediate)
	dB := workload.NewDoubles(5, workload.FillIntermediate)
	dC := workload.NewDoubles(6, workload.FillIntermediate)

	call := func(what string, d *workload.Doubles, want core.MatchKind, evictions int64) {
		t.Helper()
		if ci, err := p.Call(d.Msg); err != nil || ci.Match != want {
			t.Fatalf("%s: %v %v, want %v", what, ci.Match, err, want)
		}
		if got := p.Stats().TemplateEvictions; got != evictions {
			t.Fatalf("%s: evictions = %d, want %d", what, got, evictions)
		}
	}
	call("warmup A", dA, core.FirstTime, 0)
	call("warmup B", dB, core.FirstTime, 0)
	// Touch A so B becomes the LRU tail.
	call("recency touch", dA, core.ContentMatch, 0)
	// C finds the operation full: refused once, then admitted over B.
	call("C refused", dC, core.FullSerialization, 0)
	call("C admitted", dC, core.FirstTime, 1)

	if got := p.Entries(); got != 2 {
		t.Fatalf("entries = %d, want 2 (per-op cap)", got)
	}
	call("A after C", dA, core.ContentMatch, 1)
	// B was evicted: it goes through the doorkeeper like any new shape,
	// and its admission evicts C, now the tail.
	call("B refused", dB, core.FullSerialization, 1)
	call("B admitted", dB, core.FirstTime, 2)
	if st := p.Stats(); st.TemplateRefusals != 2 || st.FullSerializations != 2 {
		t.Fatalf("refusals %d, full serializations %d, want 2 and 2", st.TemplateRefusals, st.FullSerializations)
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
	st := newShardedStore(1, 1, 1, core.Config{}, nil)
	dA := workload.NewDoubles(8, workload.FillIntermediate)
	dB := workload.NewDoubles(9, workload.FillIntermediate)

	call := func(d *workload.Doubles) (core.CallInfo, []byte) {
		t.Helper()
		ci, body, _ := through(t, st, d.Msg)
		return ci, body
	}

	if ci, _ := call(dA); ci.Match != core.FirstTime {
		t.Fatalf("call A1 match = %v, want first-time", ci.Match)
	}
	if ci, _ := call(dB); ci.Match != core.FirstTime {
		t.Fatalf("call B match = %v, want first-time", ci.Match)
	}
	if got := st.metrics.budgetEvictions.Load(); got == 0 {
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
	st := newShardedStore(1, 1, 1, core.Config{}, nil)
	dA := workload.NewDoubles(8, workload.FillIntermediate)
	dB := workload.NewDoubles(9, workload.FillIntermediate)

	call := func(d *workload.Doubles) core.CallInfo {
		t.Helper()
		ci, _, _ := through(t, st, d.Msg)
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
	if got := st.metrics.budgetEvictions.Load(); got == 0 {
		t.Fatal("expected a budget eviction while A was in flight")
	}
	if c := st.reg.Counters(); c.Pending == 0 {
		t.Fatal("condemned in-flight entry should be pending arena release")
	}

	// The held engine still diffs and sends against live template bytes.
	var buf bytes.Buffer
	rA.sink.s = transport.WriterSink{W: &buf}
	dA.SetAll(4321.5)
	if _, err := rA.stub.Call(dA.Msg); err != nil {
		t.Fatal(err)
	}
	st.release(rA)
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

// admissionPool is a serial one-replica pool over a connection that
// keeps the last body sent.
func admissionPool(t *testing.T) (*Pool, *bytes.Buffer) {
	t.Helper()
	var last bytes.Buffer
	p, err := New(Options{
		Size:     1,
		Replicas: 1,
		Dial: func() (core.Sink, error) {
			return transport.WriterSink{W: &last}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, &last
}

// rotate calls every shape once, in order, and checks each call's match
// class: want(i) for shape i. A refused call's body must be exactly what
// the one from-scratch renderer makes of the message.
func rotate(t *testing.T, p *Pool, last *bytes.Buffer, shapes []*workload.Doubles, want func(i int) core.MatchKind) {
	t.Helper()
	for i, d := range shapes {
		body := soapenv.AppendMessage(nil, d.Msg, 0)
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
	const perOp = 4 // core.Config's default MaxTemplatesPerOp
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
	const perOp = 4
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
