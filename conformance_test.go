package bsoap_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsoap"
	"bsoap/internal/baseline"
	"bsoap/internal/chunk"
	"bsoap/internal/faultwire"
	"bsoap/internal/harness"
	"bsoap/internal/workload"
)

// expectSet is the conformance oracle: before every Call, the worker
// adds the canonical from-scratch serialization of the message's
// current values. A Call's values are stable for its whole duration
// (retries included), so every body the server accepts — including
// duplicates delivered by retried sends — must canonicalize to a
// member of this set.
type expectSet struct {
	mu sync.Mutex
	m  map[string]struct{}
}

func newExpectSet() *expectSet { return &expectSet{m: make(map[string]struct{})} }

func (s *expectSet) add(b []byte) {
	s.mu.Lock()
	s.m[string(b)] = struct{}{}
	s.mu.Unlock()
}

func (s *expectSet) has(b []byte) bool {
	s.mu.Lock()
	_, ok := s.m[string(b)]
	s.mu.Unlock()
	return ok
}

// TestConformanceMatchClasses is the deterministic half of the suite:
// one worker, one connection, one template replica, and a scripted
// connection reset on the fifth write. It proves byte conformance
// through all four match classes and through the
// failed-send → suspect-template → degraded-FTS recovery path.
func TestConformanceMatchClasses(t *testing.T) {
	inj := faultwire.NewScripted(faultwire.Options{},
		faultwire.Step{Op: faultwire.OpWrite, Skip: 4, Kind: faultwire.Reset})
	rec, p := harness.Recorder(t, inj, nil, bsoap.PoolOptions{
		Size:             1,
		Replicas:         1,
		MaxRetries:       2,
		RedialBackoff:    time.Millisecond,
		RedialBackoffMax: 10 * time.Millisecond,
	})

	w := workload.NewDoubles(16, workload.FillMin)
	ref := new(baseline.GSOAPLike)
	expected := newExpectSet()
	call := func(step string) bsoap.CallInfo {
		t.Helper()
		expected.add(canon(ref.Serialize(w.Msg)))
		ci, err := p.Call(w.Msg)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return ci
	}

	if ci := call("first-time"); ci.Match != bsoap.FirstTime {
		t.Fatalf("call 1 match = %v, want first-time", ci.Match)
	}
	if ci := call("content"); ci.Match != bsoap.ContentMatch {
		t.Fatalf("call 2 match = %v, want content match", ci.Match)
	}
	w.Arr.Set(0, workload.MinDouble2) // same width: in-place rewrite
	if ci := call("structural"); ci.Match != bsoap.StructuralMatch {
		t.Fatalf("call 3 match = %v, want structural match", ci.Match)
	}
	w.Arr.Set(1, workload.MaxDouble) // 1 char -> 24 chars: shifts
	if ci := call("partial"); ci.Match != bsoap.PartialMatch {
		t.Fatalf("call 4 match = %v, want partial match", ci.Match)
	}
	// Call 5's write hits the scripted reset: the pool repairs the
	// connection and retries, and because the failed send poisoned the
	// template, the retry is a degraded first-time send.
	w.Arr.Set(2, workload.MinDouble2)
	if ci := call("degraded"); ci.Match != bsoap.FirstTime || !ci.Degraded {
		t.Fatalf("call 5: match=%v degraded=%v, want degraded first-time", ci.Match, ci.Degraded)
	}
	// The rebuilt template serves content matches again.
	if ci := call("recovered"); ci.Match != bsoap.ContentMatch {
		t.Fatalf("call 6 match = %v, want content match", ci.Match)
	}

	// The reset killed write 5 before any bytes left, so the server
	// accepted exactly the six successful sends — each byte-equivalent
	// to a from-scratch serialization of the values at call time.
	bodies := rec.Bodies()
	if len(bodies) != 6 {
		t.Fatalf("server accepted %d bodies, want 6", len(bodies))
	}
	for i, b := range bodies {
		if !expected.has(canon(b)) {
			t.Errorf("accepted body %d diverges from every from-scratch serialization:\n%s", i, b)
		}
	}

	st := p.Stats()
	if st.DegradedFTS != 1 || st.Retries != 1 {
		t.Errorf("degraded_fts=%d retries=%d, want 1/1", st.DegradedFTS, st.Retries)
	}
	if st.FaultsInjected != 1 {
		t.Errorf("faults_injected=%d, want 1", st.FaultsInjected)
	}
}

// TestConformanceLostResponse is the read-side twin of the scripted
// reset above: the fifth response read is reset, so request 5 reached
// the server but its delivery is unconfirmed at the client. The Call
// repairs its connection and retries on the slot it holds — every call
// checks out exactly once, even on a one-connection pool — and because
// the unconfirmed bytes made the template suspect, the retry is a
// degraded first-time send. Every body the server accepts, the
// unconfirmed one included, is a from-scratch serialization of the
// values at call time.
func TestConformanceLostResponse(t *testing.T) {
	inj := faultwire.NewScripted(faultwire.Options{},
		faultwire.Step{Op: faultwire.OpRead, Skip: 4, Kind: faultwire.Reset})
	rec, p := harness.Recorder(t, inj, nil, bsoap.PoolOptions{
		Size:             1,
		Replicas:         1,
		MaxRetries:       2,
		RedialBackoff:    time.Millisecond,
		RedialBackoffMax: 10 * time.Millisecond,
	})

	w := workload.NewDoubles(16, workload.FillMin)
	ref := new(baseline.GSOAPLike)
	expected := newExpectSet()
	call := func(step string) bsoap.CallInfo {
		t.Helper()
		expected.add(canon(ref.Serialize(w.Msg)))
		ci, err := p.Call(w.Msg)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return ci
	}
	call("first-time")
	call("content")
	w.Arr.Set(0, workload.MinDouble2)
	call("structural")
	w.Arr.Set(1, workload.MaxDouble)
	call("partial")
	w.Arr.Set(2, workload.MinDouble2)
	if ci := call("lost response"); ci.Match != bsoap.FirstTime || !ci.Degraded {
		t.Fatalf("call 5: match=%v degraded=%v, want degraded first-time", ci.Match, ci.Degraded)
	}
	if ci := call("recovered"); ci.Match != bsoap.ContentMatch {
		t.Fatalf("call 6 match = %v, want content match", ci.Match)
	}

	// Seven bodies: call 5's twice. The unconfirmed one is handled on the
	// old connection and may land after the retry's.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Count() < 7 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	bodies := rec.Bodies()
	if len(bodies) != 7 {
		t.Fatalf("server accepted %d bodies, want 7", len(bodies))
	}
	for i, b := range bodies {
		if !expected.has(canon(b)) {
			t.Errorf("accepted body %d diverges from every from-scratch serialization:\n%s", i, b)
		}
	}

	st := p.Stats()
	if st.DegradedFTS != 1 || st.Retries != 1 || st.Errors != 0 || st.FaultsInjected != 1 {
		t.Errorf("degraded_fts=%d retries=%d errors=%d faults=%d, want 1/1/0/1",
			st.DegradedFTS, st.Retries, st.Errors, st.FaultsInjected)
	}
	if st.Checkouts != 6 || st.CheckoutWaits != 0 {
		t.Errorf("checkouts=%d waits=%d, want 6/0: the retry runs on the slot its call holds",
			st.Checkouts, st.CheckoutWaits)
	}
}

// TestConformanceUnderChaos is the probabilistic half: concurrent
// workers drive random mutations (touches, growths forcing shifts and
// steals, resizes) through a shared pool while faultwire resets 5% of
// writes and sprinkles partial writes, mid-stream closes, dial failures
// and latency spikes. Calls may fail; what may never happen is the
// server accepting a body that is not byte-equivalent (modulo padding)
// to a from-scratch serialization of some call's values.
func TestConformanceUnderChaos(t *testing.T) {
	inj := faultwire.New(faultwire.Options{
		Seed: 42,
		Probs: faultwire.Probabilities{
			Reset:          0.05,
			PartialWrite:   0.02,
			MidStreamClose: 0.02,
			DialError:      0.02,
			ReadDelay:      0.01,
			WriteDelay:     0.01,
		},
		Delay: 200 * time.Microsecond,
	})
	rec, p := harness.Recorder(t, inj, nil, bsoap.PoolOptions{
		Size:             4,
		MaxRetries:       3,
		DialAttempts:     6,
		RedialBackoff:    time.Millisecond,
		RedialBackoffMax: 10 * time.Millisecond,
		RetryBudget:      30 * time.Second,
		Config: bsoap.Config{
			Width:          bsoap.WidthPolicy{Double: 18, Int: 9},
			EnableStealing: true,
			Chunk:          chunk.Config{ChunkSize: 512},
		},
	})

	const (
		workers        = 4
		callsPerWorker = 80
	)
	expected := newExpectSet()
	var okCalls, failedCalls atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wk) + 1))
			ref := new(baseline.GSOAPLike)
			targets := []*target{
				doublesTarget("doubles", 32),
				intsTarget("ints", 32),
				miosTarget("mios", 8),
			}
			for c := 0; c < callsPerWorker; c++ {
				tg := targets[rng.Intn(len(targets))]
				tg.mutate(rng)
				// The oracle entry must exist before any bytes can reach
				// the wire: even a send that ultimately fails may have
				// delivered a complete request.
				expected.add(canon(ref.Serialize(tg.msg)))
				if _, err := p.Call(tg.msg); err != nil {
					failedCalls.Add(1)
				} else {
					okCalls.Add(1)
				}
			}
		}(wk)
	}
	wg.Wait()

	if okCalls.Load() == 0 {
		t.Fatal("no call survived the chaos; injection rates are too hot to prove anything")
	}
	if inj.Faults() == 0 {
		t.Fatal("no faults injected; the chaos run proved nothing")
	}
	bodies := rec.Bodies()
	if len(bodies) == 0 {
		t.Fatal("server accepted no bodies")
	}
	diverged := 0
	for i, b := range bodies {
		if !expected.has(canon(b)) {
			diverged++
			if diverged <= 3 {
				t.Errorf("accepted body %d diverges from every from-scratch serialization:\n%s", i, b)
			}
		}
	}
	if diverged > 0 {
		t.Fatalf("%d of %d accepted bodies diverged (faults injected: %d %v)",
			diverged, len(bodies), inj.Faults(), inj.FaultsByKind())
	}
	t.Logf("chaos: %d ok, %d failed, %d accepted bodies, %d faults %v, stats: degraded_fts=%d retry_budget_exhausted=%d",
		okCalls.Load(), failedCalls.Load(), len(bodies), inj.Faults(), inj.FaultsByKind(),
		p.Stats().DegradedFTS, p.Stats().RetryBudgetExhausted)
}
