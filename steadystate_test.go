// Steady-state allocation gates: the contract the buffer-ownership
// refactor establishes is that a warm send — the paper's measurement
// regime, where templates exist and calls repeat — performs ZERO heap
// allocations end to end. These tests enforce it with
// testing.AllocsPerRun rather than benchmarks, so a regression fails
// `go test ./...` instead of silently inflating allocs/op.
//
// The gates are skipped under the race detector (its instrumentation
// allocates); check.sh runs them explicitly without -race.
package bsoap_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/harness"
	"bsoap/internal/pool"
	"bsoap/internal/replica"
	"bsoap/internal/serverpool"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// TestMain honours BSOAP_TRACE=1 by enabling the flight recorder for the
// whole test binary. check.sh re-runs the allocation gates this way: the
// zero-alloc contract must hold with tracing recording every call, not
// just with the hooks compiled to their disabled branch.
func TestMain(m *testing.M) {
	if os.Getenv("BSOAP_TRACE") == "1" {
		trace.Enable()
	}
	os.Exit(m.Run())
}

// gateAllocs asserts fn performs at most want allocations per run once
// warm.
func gateAllocs(t *testing.T, want float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	if got := testing.AllocsPerRun(100, fn); got > want {
		t.Errorf("steady-state allocs/op = %v, want <= %v", got, want)
	}
}

// TestSteadyStateAllocsMCM gates the cheapest path: a content match
// resends the saved template untouched.
func TestSteadyStateAllocsMCM(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{Chunk: chunk.Config{ChunkSize: 32 * 1024}}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}
	if _, err := stub.Call(m); err != nil { // first-time send builds the template
		t.Fatal(err)
	}

	gateAllocs(t, 0, func() {
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsPSM gates the differential path: every value
// dirty each call, rewritten in place under full stuffing (no shifts).
func TestSteadyStateAllocsPSM(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk: chunk.Config{ChunkSize: 32 * 1024},
		Width: core.WidthPolicy{Double: core.MaxWidth},
	}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}

	v := 1.0
	gateAllocs(t, 0, func() {
		for i := 0; i < 1000; i++ {
			arr.Set(i, v)
		}
		v++
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsPaSMSteal gates the partial-match path where a
// growing field is served by stealing a neighbour's padding. Three
// exact-width string leaves rotate which one holds the long value;
// because leaves are rewritten in ascending order, the field that just
// shrank always has donatable padding by the time a later field grows,
// so once the combined widths stabilize every expansion is served by a
// steal — never a shift or a chunk grow — and no call allocates.
func TestSteadyStateAllocsPaSMSteal(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk:          chunk.Config{ChunkSize: 32 * 1024},
		EnableStealing: true,
	}, sink)

	const long, short = "xxxxxxxxxxxxxxxx", "y"
	m := wire.NewMessage("urn:bench", "echo")
	leaves := []wire.StringRef{
		m.AddString("a", long),
		m.AddString("b", short),
		m.AddString("c", short),
	}

	phase := 0 // index of the leaf holding the long value
	call := func() {
		phase = (phase + 1) % 3
		for i, l := range leaves {
			if i == phase {
				l.Set(long)
			} else {
				l.Set(short)
			}
		}
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past the transient shifts while total field width grows to
	// its fixed point (two leaves' worth of long values).
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		call()
	}
	before := stub.Stats()
	gateAllocs(t, 0, call)
	after := stub.Stats()
	if after.Steals == before.Steals {
		t.Fatalf("workload did not exercise stealing (steals %d -> %d)", before.Steals, after.Steals)
	}
	if after.Shifts != before.Shifts || after.Grows != before.Grows {
		t.Fatalf("workload shifted/grew instead of stealing (shifts %d->%d grows %d->%d)",
			before.Shifts, after.Shifts, before.Grows, after.Grows)
	}
}

// TestSteadyStateAllocsDeltaMCM gates differential transmission on the
// cheapest path: a content match against a synchronized peer goes out
// as a zero-region patch frame — a 40-byte header proving the body is
// unchanged — and must not allocate.
func TestSteadyStateAllocsDeltaMCM(t *testing.T) {
	sink := transport.NewDeltaDiscardSink()
	stub := core.NewStub(core.Config{Chunk: chunk.Config{ChunkSize: 32 * 1024}}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}
	// First call builds and sync-announces the template; the second is
	// the first patch-eligible one and warms the encoder scratch.
	for i := 0; i < 2; i++ {
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	}

	before := sink.DeltaSends()
	gateAllocs(t, 0, func() {
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	})
	if sink.DeltaSends() == before {
		t.Fatal("warm content matches did not go out as patch frames")
	}
}

// TestSteadyStateAllocsDeltaPatch gates the real patch path: scattered
// in-place rewrites each call (stuffed widths, so no shifts) become a
// multi-region frame — region walk, CRC over the whole body, header
// assembly, gather vector — with zero allocations once warm. The
// touches are scattered because region coalescing is adjacency-only;
// this keeps the frame genuinely multi-region rather than one run.
func TestSteadyStateAllocsDeltaPatch(t *testing.T) {
	sink := transport.NewDeltaDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk: chunk.Config{ChunkSize: 32 * 1024},
		Width: core.WidthPolicy{Double: core.MaxWidth},
	}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 1000)
	for i := 0; i < 1000; i++ {
		arr.Set(i, float64(i))
	}

	v := 1.0
	call := func() {
		for i := 0; i < 1000; i += 100 {
			arr.Set(i, v)
		}
		v++
		if _, err := stub.Call(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stub.Call(m); err != nil {
		t.Fatal(err)
	}
	call() // warm the region and frame scratch

	before := sink.DeltaSends()
	gateAllocs(t, 0, call)
	after := sink.DeltaSends()
	if after == before {
		t.Fatal("warm scattered rewrites did not go out as patch frames")
	}
	if st := stub.Stats(); st.Shifts != 0 || st.Grows != 0 {
		t.Fatalf("workload shifted/grew (shifts %d, grows %d); frames were not pure rewrites", st.Shifts, st.Grows)
	}
}

// ackPool dials a pool at a loopback server that answers every request
// with an empty 200, so a gate counts the whole round trip: the write,
// the server's read and answer, and the response read.
func ackPool(t *testing.T, opts pool.Options) *pool.Pool {
	t.Helper()
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	opts.Addr = srv.Addr()
	return harness.Pool(t, opts)
}

// TestSteadyStateAllocsPool gates the concurrent runtime's whole warm
// path: checkout, replica acquire, differential send, response read,
// metrics. The engine being allocation-free is not enough if the
// runtime around it churns per call.
func TestSteadyStateAllocsPool(t *testing.T) {
	p := ackPool(t, pool.Options{Size: 2})

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 100)
	for i := 0; i < 100; i++ {
		arr.Set(i, float64(i))
	}
	// Warm every replica the store may route this message to.
	for i := 0; i < 20; i++ {
		if _, err := p.Call(m); err != nil {
			t.Fatal(err)
		}
	}

	gateAllocs(t, 0, func() {
		if _, err := p.Call(m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsRefused gates the call the template store refuses:
// an operation whose cap of templates is in use sees one shape more than
// the cap take turns, so the doorkeeper — which remembers only the last
// cap refused shapes — refuses each, and it goes out from scratch
// through the connection slot's own stub, a full serialization that
// builds, evicts and allocates nothing once the slot's buffer has grown.
func TestSteadyStateAllocsRefused(t *testing.T) {
	const cap = replica.TemplatesPerOp
	p := ackPool(t, pool.Options{Size: 1})
	for i := 0; i < cap; i++ {
		held := workload.NewDoubles(100+i, workload.FillIntermediate)
		if ci, err := p.Call(held.Msg); err != nil || ci.Match != core.FirstTime {
			t.Fatalf("held shape %d: %v %v", i, ci.Match, err)
		}
	}
	refused := make([]*workload.Doubles, cap+1)
	for i := range refused {
		refused[i] = workload.NewDoubles(100+cap+i, workload.FillIntermediate)
	}
	call := func() {
		for i, d := range refused {
			d.Arr.Set(i, float64(i))
			if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.FullSerialization {
				t.Fatalf("shape %d: %v %v, want a full serialization", i, ci.Match, err)
			}
		}
	}
	call()
	gateAllocs(t, 0, call)
	if st := p.Stats(); st.TemplateEvictions != 0 || st.FirstTimeSends != cap {
		t.Fatalf("%d evictions, %d first-time sends; want 0 and %d", st.TemplateEvictions, st.FirstTimeSends, cap)
	}
}

// TestSteadyStateAllocsPipelined gates the pipelined call path over
// loopback against a read-ahead server (the pipelined_d8 shape): a
// request's place in the pipeline lives in its Future, and the waiter
// reads the response itself, so CallAsync + Wait allocates the Future
// and nothing else, and a Call, whose place is its connection slot's
// own, allocates nothing.
// AllocsPerRun counts the whole process and averages in whole
// allocations, which absorbs the server's rare header intern (a few per
// thousand requests).
func TestSteadyStateAllocsPipelined(t *testing.T) {
	const depth = 8
	_, srv := harness.BenchRuntime(t,
		serverpool.Options{DifferentialDeserialization: true},
		transport.ServerOptions{ReadAhead: depth})
	p := harness.Pool(t, pool.Options{
		Size: 1, Addr: srv.Addr(), PipelineDepth: depth,
		Config: core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}},
	})
	var ds [depth]*workload.Doubles
	for i := range ds {
		ds[i] = workload.NewDoubles(100, workload.FillIntermediate)
	}
	var futs [depth]*pool.Future
	n := 0
	window := func() { // depth calls in flight, then their waits
		n++
		for j, d := range ds {
			d.Arr.Set((n+j)%100, float64(n))
			f, err := p.CallAsync(d.Msg)
			if err != nil {
				t.Fatal(err)
			}
			futs[j] = f
		}
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	call := func() {
		n++
		d := ds[n%depth]
		d.Arr.Set(n%100, float64(n))
		if _, err := p.Call(d.Msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // templates, connection, server replicas
		window()
	}

	t.Run("CallAsync+Wait", func(t *testing.T) {
		gateAllocs(t, depth, window)
	})
	t.Run("Call", func(t *testing.T) {
		gateAllocs(t, 0, call)
	})
}

// TestSteadyStateAllocsOverlay gates the chunk-overlaying path: once the
// resident chunk is laid out, re-serializing an array many times its
// size must not allocate.
func TestSteadyStateAllocsOverlay(t *testing.T) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(core.Config{
		Chunk: chunk.Config{ChunkSize: 4 * 1024},
		Width: core.WidthPolicy{Double: core.MaxWidth},
	}, sink)

	m := wire.NewMessage("urn:bench", "echo")
	arr := m.AddDoubleArray("values", 2000)
	for i := 0; i < 2000; i++ {
		arr.Set(i, float64(i))
	}
	if _, err := stub.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}

	v := 1.0
	gateAllocs(t, 0, func() {
		arr.Set(0, v)
		v++
		if _, err := stub.CallOverlay(m, sink); err != nil {
			t.Fatal(err)
		}
	})
}

// serverBodyPair renders an n-double message twice under full stuffing,
// every step-th leaf rewritten in between: two bodies of one length, the
// pair a warm server sees alternate.
func serverBodyPair(t *testing.T, n, step int) (a, b []byte) {
	t.Helper()
	sink := &recordSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}, sink)
	d := workload.NewDoubles(n, workload.FillIntermediate)
	if _, err := stub.Call(d.Msg); err != nil {
		t.Fatal(err)
	}
	a = sink.last()
	for i := 0; i < n; i += step {
		d.Arr.Set(i, -d.Arr.Get(i)-0.5)
	}
	if _, err := stub.Call(d.Msg); err != nil {
		t.Fatal(err)
	}
	b = sink.last()
	if len(a) != len(b) {
		t.Fatalf("stuffed bodies differ in length: %d, %d", len(a), len(b))
	}
	return a, b
}

// patchFrame encodes next as a patch frame against base (same length):
// one region per run of differing bytes.
func patchFrame(base, next []byte, tid, baseEpoch, newEpoch uint64) []byte {
	var regions [][2]int
	for i := 0; i < len(next); i++ {
		if base[i] == next[i] {
			continue
		}
		start := i
		for i < len(next) && base[i] != next[i] {
			i++
		}
		regions = append(regions, [2]int{start, i})
	}
	f := wire.AppendDeltaHeader(nil, tid, baseEpoch, newEpoch, len(next), wire.DeltaCRC(next), len(regions))
	for _, r := range regions {
		f = wire.AppendDeltaRegionHeader(f, r[0], r[1]-r[0])
		f = append(f, next[r[0]:r[1]]...)
	}
	return f
}

// TestSteadyStateAllocsServer is the server-side gate: a warmed
// serverpool replica decodes a request differentially, dispatches it and
// serializes the response without allocating — the operation is looked
// up by a view of its name and the response is built in the request's
// own recycled storage — whatever the size of the body, however many of
// its leaves changed, and whether it arrived whole or as a patch frame.
// The loopback case adds the rest of the server's path: the transport's
// read, dispatch and response write on a real connection.
func TestSteadyStateAllocsServer(t *testing.T) {
	const perRequest = 0
	for _, c := range []struct {
		name    string
		n, step int
		patch   bool
	}{
		{"10of1000", 1000, 100, false},
		{"1000of1000", 1000, 1, false},
		{"4000of4000", 4000, 1, false},
		{"patch10of1000", 1000, 100, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, _ := harness.BenchRuntime(t,
				serverpool.Options{DifferentialDeserialization: true, Delta: true},
				transport.ServerOptions{})
			h := rt.HTTPHandler()
			a, b := serverBodyPair(t, c.n, c.step)
			reqs := []*transport.Request{
				{Method: "POST", ConnID: 1, Body: b},
				{Method: "POST", ConnID: 1, Body: a},
			}
			warm := &transport.Request{Method: "POST", ConnID: 1, Body: a}
			if c.patch {
				warm.DeltaMode, warm.DeltaTID, warm.DeltaEpoch = transport.DeltaSync, 1, 1
				reqs[0].Body, reqs[0].DeltaMode = patchFrame(a, b, 1, 1, 2), transport.DeltaPatch
				reqs[1].Body, reqs[1].DeltaMode = patchFrame(b, a, 1, 2, 1), transport.DeltaPatch
			}
			if _, err := h(warm); err != nil {
				t.Fatal(err)
			}
			round := func() {
				for _, req := range reqs {
					if _, err := h(req); err != nil {
						t.Fatal(err)
					}
				}
			}
			round() // response template, frame scratch

			before := rt.Stats()
			gateAllocs(t, perRequest*float64(len(reqs)), round)
			st := rt.Stats()
			requests := st.Requests - before.Requests
			if st.FullParses != before.FullParses || st.DiffDecodes-before.DiffDecodes != requests {
				t.Fatalf("warm requests left the fast path: %+v", st)
			}
			want := int64((c.n + c.step - 1) / c.step)
			if got := (st.ValuesReparsed - before.ValuesReparsed) / requests; got != want {
				t.Fatalf("re-lexed %d leaves per request, want %d", got, want)
			}
			if c.patch && st.DeltaApplied-before.DeltaApplied != requests {
				t.Fatalf("applied %d patch frames in %d requests", st.DeltaApplied-before.DeltaApplied, requests)
			}
		})
	}

	// The client's warm path is TestSteadyStateAllocsPool's and allocates
	// nothing, so over a real connection the process's allocation count
	// is the server goroutine's: request read, handler, response write —
	// on the connection goroutine, and under read-ahead (the scheduler
	// pipelined_d8 runs) on a reader goroutine and a ring of nine
	// Requests, each with its own response buffer.
	t.Run("loopback", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are unreliable under -race")
		}
		for _, readAhead := range []int{0, 8} {
			t.Run(fmt.Sprintf("readahead%d", readAhead), func(t *testing.T) {
				rt, srv := harness.BenchRuntime(t,
					serverpool.Options{DifferentialDeserialization: true},
					transport.ServerOptions{ReadAhead: readAhead})
				p := harness.Pool(t, pool.Options{
					Size: 1, Addr: srv.Addr(),
					Config: core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}},
				})
				d := workload.NewDoubles(100, workload.FillIntermediate)
				call := func(i int) {
					d.Arr.Set(i%100, float64(i))
					if _, err := p.Call(d.Msg); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 100; i++ {
					call(i)
				}
				const calls = 2000
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < calls; i++ {
					call(i)
				}
				runtime.ReadMemStats(&after)
				if got := float64(after.Mallocs-before.Mallocs) / calls; got > 0.05 {
					t.Errorf("%v allocations per call over loopback, want <= 0.05", got)
				}
				if st := rt.Stats(); st.FullParses != 1 || st.Requests != calls+100 {
					t.Fatalf("warm requests left the fast path: %+v", st)
				}
			})
		}
	})
}
