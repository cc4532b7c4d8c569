package pool

import (
	"bytes"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// TestShardedStoreEvictsColdSignatures proves the per-operation LRU cap:
// cold (operation, signature) replica sets are dropped, recently used
// ones stay warm, so the store cannot grow without bound under varying
// message shapes.
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

	for _, m := range []*workload.Doubles{dA, dB} {
		if ci, err := p.Call(m.Msg); err != nil || ci.Match != core.FirstTime {
			t.Fatalf("warmup: %v %v", ci.Match, err)
		}
	}
	// Touch A so B becomes the LRU tail, then push C in: B is evicted.
	if ci, err := p.Call(dA.Msg); err != nil || ci.Match != core.ContentMatch {
		t.Fatalf("recency touch: %v %v", ci.Match, err)
	}
	if ci, err := p.Call(dC.Msg); err != nil || ci.Match != core.FirstTime {
		t.Fatalf("insert C: %v %v", ci.Match, err)
	}

	if got := p.Entries(); got != 2 {
		t.Fatalf("entries = %d, want 2 (per-op cap)", got)
	}
	if ci, err := p.Call(dA.Msg); err != nil || ci.Match == core.FirstTime {
		t.Fatalf("A went cold despite recency: %v %v", ci.Match, err)
	}
	if ci, err := p.Call(dB.Msg); err != nil || ci.Match != core.FirstTime {
		t.Fatalf("B expected to have been evicted: %v %v", ci.Match, err)
	}
	if got := p.Stats().TemplateEvictions; got != 2 {
		t.Fatalf("evictions = %d, want 2 (B then C)", got)
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
	st := NewShardedStore(1, 1, 1, core.Config{}, nil)
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
	st := NewShardedStore(1, 1, 1, core.Config{}, nil)
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
