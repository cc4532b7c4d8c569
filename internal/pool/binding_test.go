package pool

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bsoap/internal/core"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapenv"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// through runs one call of m through the store, as Pool.submit does
// between acquire and release, into a buffer of its own: the body the
// call put on the wire, and the engine that served it (nil when the
// store refused the call a template and it went out from scratch).
func through(t testing.TB, st *shardedStore, m *wire.Message) (core.CallInfo, []byte, *engine) {
	t.Helper()
	var buf bytes.Buffer
	ci, r, err := throughTo(st, m, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return ci, buf.Bytes(), r
}

func throughTo(st *shardedStore, m *wire.Message, w io.Writer) (core.CallInfo, *engine, error) {
	r := st.acquire(m)
	if r == nil {
		// Refused: rendered from scratch, as by the pool slot's own stub.
		ci, err := core.NewStub(core.Config{DisableDiff: true}, transport.WriterSink{W: w}).Call(m)
		return ci, nil, err
	}
	r.sink.s = transport.WriterSink{W: w}
	ci, err := r.stub.Call(m)
	st.release(r)
	return ci, r, err
}

// failWriter is a connection that dies mid-send.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("injected send failure") }

// stripPadding drops the whitespace that stuffing, shrinks and tag shifts
// leave between a '>' and the next '<', so that two serializations of
// the same numeric values compare equal however their templates padded
// them.
func stripPadding(b []byte) []byte {
	out := make([]byte, 0, len(b))
	gap := false
	for _, c := range b {
		switch {
		case c == '>':
			gap = true
		case c == '<':
			gap = false
		case gap && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			continue
		}
		out = append(out, c)
	}
	return out
}

// matchesFresh compares what a call sent with a from-scratch
// serialization of the message by a fresh engine, modulo padding. It runs
// after the call: a first-time send reads the live values whatever the
// dirty bits say, and the bits are clean already.
func matchesFresh(cfg core.Config, m *wire.Message, sent []byte) error {
	var buf bytes.Buffer
	if _, err := core.NewStub(cfg, transport.WriterSink{W: &buf}).Call(m); err != nil {
		return err
	}
	if !bytes.Equal(stripPadding(sent), stripPadding(buf.Bytes())) {
		return fmt.Errorf("body differs from a from-scratch serialization\n sent: %s\nfresh: %s",
			stripPadding(sent), stripPadding(buf.Bytes()))
	}
	return nil
}

func checkBody(t testing.TB, cfg core.Config, m *wire.Message, sent []byte, what string) {
	t.Helper()
	if err := matchesFresh(cfg, m, sent); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// checkBinding asserts the binding invariant on every entry at rest: no
// message is bound to two engines, and an idle engine's record of its
// binding is the message its template actually serialized last.
func checkBinding(t testing.TB, st *shardedStore) {
	t.Helper()
	st.reg.Each(func(key reg.Key, e *storeEntry) {
		e.mu.Lock()
		defer e.mu.Unlock()
		owner := make(map[*wire.Message]bool)
		for i, r := range e.engines {
			if owner[r.bound] {
				t.Errorf("%s: a message is bound to two engines", key.Group)
			}
			owner[r.bound] = true
			if r.chosen != r.served.Load() {
				continue // mid-call: the template catches up when the queue drains
			}
			r.mu.Lock()
			if n := r.stub.Store().TemplateCount(); n > 1 {
				t.Errorf("%s engine %d holds %d templates, want at most one", key.Group, i, n)
			}
			if tpl := r.stub.Template(key.Group, key.Sub); tpl != nil && tpl.Message() != r.bound {
				t.Errorf("%s engine %d: bound to %p, template serialized %p last",
					key.Group, i, r.bound, tpl.Message())
			}
			r.mu.Unlock()
		}
	})
}

// bindings records which message every engine of the store is bound to.
func bindings(st *shardedStore) map[*engine]*wire.Message {
	b := make(map[*engine]*wire.Message)
	st.reg.Each(func(_ reg.Key, e *storeEntry) {
		e.mu.Lock()
		for _, r := range e.engines {
			b[r] = r.bound
		}
		e.mu.Unlock()
	})
	return b
}

// change gives `leaves` distinct elements of d new values.
func change(rng *rand.Rand, d *workload.Doubles, leaves int) {
	for _, i := range rng.Perm(d.Arr.Len())[:leaves] {
		d.Arr.Set(i, d.Arr.Get(i)+1)
	}
}

// waitChosen returns once n calls that chose r have yet to release it:
// its holder and the n-1 queued behind.
func waitChosen(r *engine, n uint32) {
	e := r.slot.Value
	for chose := false; !chose; runtime.Gosched() {
		e.mu.Lock()
		chose = r.chosen-r.served.Load() == n
		e.mu.Unlock()
	}
}

// TestBindingSticksWithinReplicas: with no more live same-shape messages
// than replicas, every message keeps its own template whatever the call
// order and wherever the allocator put it — after the first calls there
// is never a rebind, and a call rewrites exactly the leaves that changed.
func TestBindingSticksWithinReplicas(t *testing.T) {
	const leaves = 32
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		replicas := 1 + rng.Intn(6)
		st := newShardedStore(1, replicas, 0, core.Config{}, nil)
		msgs := make([]*workload.Doubles, 1+rng.Intn(replicas))
		var decoys [][]byte
		for i := range msgs {
			// Decoy allocations move the messages around the heap from
			// trial to trial: the binding must not depend on addresses.
			decoys = append(decoys, make([]byte, 1+rng.Intn(8192)))
			msgs[i] = workload.NewDoubles(leaves, workload.FillIntermediate)
		}
		for _, i := range rng.Perm(len(msgs)) {
			if ci, _, _ := through(t, st, msgs[i].Msg); ci.Match != core.FirstTime {
				t.Fatalf("trial %d: first call of message %d: %v, want first-time", trial, i, ci.Match)
			}
		}
		home := make(map[*wire.Message]*engine)
		for step := 0; step < 100; step++ {
			d := msgs[rng.Intn(len(msgs))]
			changed := rng.Intn(4)
			change(rng, d, changed)
			ci, body, r := through(t, st, d.Msg)
			if ci.ValuesRewritten != changed || (ci.Match == core.ContentMatch) != (changed == 0) {
				t.Fatalf("trial %d step %d: %v rewrote %d leaves, %d changed",
					trial, step, ci.Match, ci.ValuesRewritten, changed)
			}
			if h := home[d.Msg]; h != nil && h != r {
				t.Fatalf("trial %d step %d: message moved to another engine", trial, step)
			}
			home[d.Msg] = r
			checkBody(t, core.Config{}, d.Msg, body, "sticky call")
			checkBinding(t, st)
		}
		if got := st.metrics.templateRebinds.Load(); got != 0 {
			t.Fatalf("trial %d: %d rebinds with %d messages on %d replicas, want 0",
				trial, got, len(msgs), replicas)
		}
		runtime.KeepAlive(decoys)
	}
}

// TestBindingStealsLeastRecentlyUsed: with more live same-shape messages
// than replicas, a message without an engine takes the one chosen
// longest ago, the taken-over template is rewritten in full, and every
// body is still what a from-scratch serialization would send.
func TestBindingStealsLeastRecentlyUsed(t *testing.T) {
	const leaves, replicas = 16, 3
	rng := rand.New(rand.NewSource(43))
	st := newShardedStore(1, replicas, 0, core.Config{}, nil)
	msgs := make([]*workload.Doubles, 5)
	for i := range msgs {
		msgs[i] = workload.NewDoubles(leaves, workload.FillIntermediate)
	}
	// The model: engines in order of last choice, oldest first, and the
	// message each is bound to.
	var order []*engine
	bound := make(map[*engine]*wire.Message)
	steals := int64(0)
	for step := 0; step < 300; step++ {
		d := msgs[rng.Intn(len(msgs))]
		changed := rng.Intn(3)
		change(rng, d, changed)
		ci, body, r := through(t, st, d.Msg)

		at := -1
		for i, e := range order {
			if bound[e] == d.Msg {
				at = i
			}
		}
		switch {
		case at >= 0: // rule 1
			if r != order[at] || ci.ValuesRewritten != changed {
				t.Fatalf("step %d: bound message left its engine or rewrote %d leaves for %d changed",
					step, ci.ValuesRewritten, changed)
			}
			order = append(order[:at], order[at+1:]...)
		case len(order) < replicas: // rule 2
			if _, seen := bound[r]; seen || ci.Match != core.FirstTime {
				t.Fatalf("step %d: want a new engine while below Replicas, got %v on a used one", step, ci.Match)
			}
		default: // rule 3
			if r != order[0] {
				t.Fatalf("step %d: steal did not take the least recently used engine", step)
			}
			if ci.Match == core.ContentMatch || ci.ValuesRewritten != leaves {
				t.Fatalf("step %d: taken-over template: %v rewrote %d of %d leaves",
					step, ci.Match, ci.ValuesRewritten, leaves)
			}
			order = order[1:]
			steals++
		}
		order = append(order, r)
		bound[r] = d.Msg
		checkBody(t, core.Config{}, d.Msg, body, "oversubscribed call")
		checkBinding(t, st)
	}
	if got := st.metrics.templateRebinds.Load(); got != steals || steals == 0 {
		t.Fatalf("rebinds = %d, model counted %d steals", got, steals)
	}
}

// TestReplicaBounceForcesRewrite keeps the observable of the stale
// payload bug: dirty bits live on the message but template bytes live
// per replica, so a message that was served by another replica and comes
// back must never be classified a content match there, nor resend the
// bytes that replica still holds from before.
func TestReplicaBounceForcesRewrite(t *testing.T) {
	const leaves = 8
	newMsg := func() *workload.Doubles { return workload.NewDoubles(leaves, workload.FillIntermediate) }

	t.Run("steals", func(t *testing.T) {
		st := newShardedStore(1, 2, 0, core.Config{}, nil)
		d, a, b := newMsg(), newMsg(), newMsg()
		a.SetAll(1.5)
		b.SetAll(2.5)

		_, b1, r1 := through(t, st, d.Msg) // d on the first engine
		_, _, r2 := through(t, st, a.Msg)  // a on the second
		if _, _, r := through(t, st, b.Msg); r != r1 {
			t.Fatal("b was expected to take over d's engine, the least recently used")
		}
		// d carries new values to the other engine...
		d.SetAll(4242.5)
		if _, _, r := through(t, st, d.Msg); r != r2 {
			t.Fatal("d was expected to take over a's engine")
		}
		// ...and, untouched, comes back to the first once a and b have
		// moved over it.
		through(t, st, a.Msg)
		through(t, st, b.Msg)
		ci, b3, r3 := through(t, st, d.Msg)
		if r3 != r1 {
			t.Fatal("d was expected to return to its first engine")
		}
		if ci.Match == core.ContentMatch || ci.ValuesRewritten != leaves {
			t.Fatalf("returning call: %v rewrote %d of %d leaves on a template that is not d's",
				ci.Match, ci.ValuesRewritten, leaves)
		}
		if bytes.Equal(b3, b1) || !bytes.Contains(b3, []byte("4242.5")) {
			t.Fatalf("returning call resent stale bytes:\n%s", b3)
		}
		checkBody(t, core.Config{}, d.Msg, b3, "returning call")
		checkBinding(t, st)
		if got := st.metrics.Snapshot().TemplateStaleRebinds; got != 0 {
			t.Fatalf("stale rebinds = %d: the bounce protocol is gone and counts nothing", got)
		}
	})

	// The engine is chosen under rule 4 while its owner is still mid-call;
	// then the owner returns. The queued message owns the engine from the
	// moment it chose it, so the returning owner meets a template that is
	// no longer its own and rewrites it.
	t.Run("queued behind the owner", func(t *testing.T) {
		st := newShardedStore(1, 1, 0, core.Config{}, nil)
		d1, d2 := newMsg(), newMsg()
		d2.SetAll(77.25)
		through(t, st, d1.Msg)

		r := st.acquire(d1.Msg) // d1 mid-call
		type result struct {
			ci   core.CallInfo
			body []byte
			err  error
		}
		queued := make(chan result)
		go func() {
			var buf bytes.Buffer
			ci, _, err := throughTo(st, d2.Msg, &buf)
			queued <- result{ci, buf.Bytes(), err}
		}()
		waitChosen(r, 2)
		e := r.slot.Value
		e.mu.Lock()
		owner := r.bound
		e.mu.Unlock()
		if owner != d2.Msg {
			t.Fatal("the queued message does not own the engine it chose")
		}

		var buf bytes.Buffer
		r.sink.s = transport.WriterSink{W: &buf}
		if ci, err := r.stub.Call(d1.Msg); err != nil || ci.Match != core.ContentMatch {
			t.Fatalf("owner's call in flight: %v %v, want content match", ci.Match, err)
		}
		st.release(r)
		q := <-queued
		if q.err != nil || q.ci.ValuesRewritten != leaves {
			t.Fatalf("queued call: %v, rewrote %d of %d leaves", q.err, q.ci.ValuesRewritten, leaves)
		}
		checkBody(t, core.Config{}, d2.Msg, q.body, "queued call")
		checkBinding(t, st)

		ci, body, _ := through(t, st, d1.Msg) // untouched
		if ci.Match == core.ContentMatch || ci.ValuesRewritten != leaves {
			t.Fatalf("returning owner: %v rewrote %d of %d leaves on the queued message's template",
				ci.Match, ci.ValuesRewritten, leaves)
		}
		checkBody(t, core.Config{}, d1.Msg, body, "returning owner")
		checkBinding(t, st)
		if got := st.metrics.templateRebinds.Load(); got != 2 {
			t.Fatalf("rebinds = %d, want 2 (d2 took the engine, d1 took it back)", got)
		}
	})
}

// TestBindingQueueRunsInChoiceOrder: calls queued on one engine run in
// the order they chose it, which is what lets the binding recorded at
// the choice stand for the message the template serialized last.
func TestBindingQueueRunsInChoiceOrder(t *testing.T) {
	st := newShardedStore(1, 1, 0, core.Config{}, nil)
	head := workload.NewDoubles(4, workload.FillIntermediate)
	r := st.acquire(head.Msg)

	const waiters = 6
	var mu sync.Mutex
	var ran []int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := st.acquire(workload.NewDoubles(4, workload.FillIntermediate).Msg)
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			st.release(q)
		}(i)
		waitChosen(r, uint32(i+2))
	}
	st.release(r)
	wg.Wait()
	for i, got := range ran {
		if got != i {
			t.Fatalf("queued calls ran in order %v", ran)
		}
	}
}

// TestBindingOversubscribedConcurrent runs more goroutines than replicas
// over one structure, each with its own message, under rules 3 and 4 at
// once: every body must be the from-scratch serialization of the message
// as its owner left it.
func TestBindingOversubscribedConcurrent(t *testing.T) {
	cfg := core.Config{EnableStealing: true}
	st := newShardedStore(1, 2, 0, cfg, nil)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			d := workload.NewDoubles(24, workload.FillIntermediate)
			for i := 0; i < 200 && !t.Failed(); i++ {
				switch rng.Intn(4) {
				case 0: // untouched
				case 1:
					d.GrowFraction(0.1, workload.MaxDouble)
				default:
					change(rng, d, 1+rng.Intn(3))
				}
				var buf bytes.Buffer
				if _, _, err := throughTo(st, d.Msg, &buf); err != nil {
					t.Error(err)
					return
				}
				if err := matchesFresh(cfg, d.Msg, buf.Bytes()); err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkBinding(t, st)
}

// FuzzBindingSchedule lets the input drive a single-goroutine schedule
// over K same-shape messages and a replica limit: set a leaf, call a
// message, fail a send, evict the entry, resize a message and restore
// it. After every call that succeeds, the bytes handed to the sink must
// be a from-scratch serialization of the message modulo padding, and the
// binding invariant must hold. A call the doorkeeper refuses a template
// must go out as exactly soapenv.AppendMessage's body and bind nothing.
func FuzzBindingSchedule(f *testing.F) {
	const (
		opCall = iota
		opSet
		opFail
		opEvict
		opReshape
		nOps
	)
	// Message 0 is served, carries new values to the other engine, and
	// returns untouched to the first: the sequence that made the old
	// runtime resend stale bytes, here driven through steals (K=3 on two
	// replicas).
	f.Add([]byte{2, 1, opCall, 0, opCall, 1, opCall, 2, opSet, 0, opCall, 0,
		opCall, 1, opCall, 2, opCall, 0, opCall, 0})
	f.Add([]byte{0, 0, opCall, 0, opFail, 0, opCall, 0, opSet, 0, opCall, 0})
	f.Add([]byte{5, 2, opCall, 0, opCall, 1, opEvict, 0, opSet, 1, opCall, 1, opCall, 0})
	f.Add([]byte{1, 0, opCall, 0, opReshape, 0, opCall, 0, opCall, 1, opReshape, 1 | 0x80, opCall, 1})

	values := []float64{0, 1, -2.5, 1234.5678, workload.MaxDouble, 4242.5}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		const leaves = 6
		cfg := core.Config{EnableStealing: true, MaxTemplatesPerOp: 2}
		k := 1 + int(in[0])%6
		st := newShardedStore(1, []int{1, 2, 4}[int(in[1])%3], 0, cfg, nil)
		msgs := make([]*workload.Doubles, k)
		for i := range msgs {
			msgs[i] = workload.NewDoubles(leaves, workload.FillIntermediate)
		}
		// Two other shapes of the same operation: calling both twice —
		// refused by the full operation, then admitted — pushes the
		// messages' entry out of the per-operation cap.
		evictors := []*workload.Doubles{
			workload.NewDoubles(leaves+2, workload.FillMin),
			workload.NewDoubles(leaves+3, workload.FillMin),
		}
		call := func(d *workload.Doubles) {
			before := bindings(st)
			want := soapenv.AppendMessage(nil, d.Msg, 0) // before the call clears the dirty bits
			ci, body, r := through(t, st, d.Msg)
			checkBody(t, cfg, d.Msg, body, "call")
			checkBinding(t, st)
			if r != nil {
				return
			}
			if ci.Match != core.FullSerialization || !bytes.Equal(body, want) {
				t.Fatalf("refused call: %v, body differs from AppendMessage's", ci.Match)
			}
			if after := bindings(st); !maps.Equal(before, after) {
				t.Fatal("a refused call changed a binding")
			}
		}
		for in = in[2:]; len(in) >= 2; in = in[2:] {
			arg := int(in[1])
			d := msgs[arg%k]
			switch int(in[0]) % nOps {
			case opCall:
				call(d)
			case opSet:
				d.Arr.Set(arg/k%d.Arr.Len(), values[arg/k/leaves%len(values)])
			case opFail:
				if _, _, err := throughTo(st, d.Msg, failWriter{}); err == nil {
					t.Fatal("a send into a dead connection succeeded")
				}
				checkBinding(t, st)
			case opEvict:
				for _, ev := range evictors {
					call(ev)
					call(ev)
				}
			case opReshape:
				d.Arr.Resize(leaves + 1)
				if arg&0x80 != 0 {
					call(d)
				}
				d.Arr.Resize(leaves)
			}
			checkBinding(t, st)
		}
	})
}
