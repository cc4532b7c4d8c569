package pool

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// newPipelinedPool dials a pool of the given depth at a responding ack
// server.
func newPipelinedPool(t *testing.T, depth int, opts Options) (*Pool, *transport.Server) {
	t.Helper()
	opts.PipelineDepth = depth
	return newAckPool(t, opts)
}

// TestCallAsyncOnDefaultPool: every pool connection is a pipeline, so
// CallAsync needs no option — on a default pool (depth 1) the future
// resolves with the call, and Wait repeats the outcome.
func TestCallAsyncOnDefaultPool(t *testing.T) {
	p, srv := newAckPool(t, Options{Size: 1, Replicas: 1})
	d := workload.NewDoubles(8, workload.FillIntermediate)
	for i, want := range []core.MatchKind{core.FirstTime, core.ContentMatch} {
		f, err := p.CallAsync(d.Msg)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		ci, err := f.Wait()
		if err != nil || ci.Match != want {
			t.Fatalf("call %d: %v %v, want %v", i, ci.Match, err, want)
		}
		if again, err := f.Wait(); err != nil || again != ci {
			t.Fatalf("call %d: second Wait returned %+v %v, want the first outcome", i, again, err)
		}
	}
	if s := p.Stats(); s.Calls != 2 || s.Errors != 0 || s.PipelineDepth != 1 || s.FuturesPending != 0 {
		t.Fatalf("calls=%d errors=%d depth=%d pending=%d, want 2/0/1/0", s.Calls, s.Errors, s.PipelineDepth, s.FuturesPending)
	}
	if srv.Requests() != 2 {
		t.Fatalf("server saw %d requests, want 2", srv.Requests())
	}
}

func TestCallAsyncWarmPath(t *testing.T) {
	p, srv := newPipelinedPool(t, 4, Options{Size: 1, Replicas: 1})
	d := workload.NewDoubles(64, workload.FillIntermediate)

	f, err := p.CallAsync(d.Msg)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := f.Wait()
	if err != nil || ci.Match != core.FirstTime {
		t.Fatalf("call 1: %v %v, want first-time", ci.Match, err)
	}

	// Warm calls: mutate → wait each future before touching the message
	// again (per-message confinement extends to futures).
	for i := 0; i < 8; i++ {
		d.TouchFraction(0.25)
		f, err := p.CallAsync(d.Msg)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if ci, err = f.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if ci.Match != core.StructuralMatch && ci.Match != core.PartialMatch {
			t.Fatalf("warm call %d classified %v", i, ci.Match)
		}
	}

	s := p.Stats()
	if s.AsyncCalls != 9 {
		t.Fatalf("async_calls = %d, want 9", s.AsyncCalls)
	}
	if s.PipelineDepth != 4 {
		t.Fatalf("pipeline_depth = %d, want 4", s.PipelineDepth)
	}
	if s.FuturesPending != 0 {
		t.Fatalf("futures_pending = %d after quiescence", s.FuturesPending)
	}
	if s.Calls != 9 || s.Errors != 0 {
		t.Fatalf("calls=%d errors=%d", s.Calls, s.Errors)
	}
	if srv.Requests() != 9 {
		t.Fatalf("server saw %d requests", srv.Requests())
	}
}

func TestCallRoutesThroughPipeline(t *testing.T) {
	p, _ := newPipelinedPool(t, 2, Options{Size: 1})
	d := workload.NewDoubles(32, workload.FillIntermediate)
	for i := 0; i < 3; i++ {
		if _, err := p.Call(d.Msg); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		d.TouchFraction(0.5)
	}
	if s := p.Stats(); s.AsyncCalls != 3 || s.Calls != 3 {
		t.Fatalf("async_calls=%d calls=%d, want 3/3 (Call must route through the pipeline)", s.AsyncCalls, s.Calls)
	}
}

func TestCallAsyncManyInFlight(t *testing.T) {
	p, _ := newPipelinedPool(t, 8, Options{Size: 1, Replicas: 4})
	// Distinct messages may have concurrent futures; keep a window of 8.
	msgs := make([]*workload.Doubles, 8)
	for i := range msgs {
		msgs[i] = workload.NewDoubles(16+4*i, workload.FillIntermediate)
	}
	futures := make([]*Future, len(msgs))
	for round := 0; round < 20; round++ {
		for i, m := range msgs {
			if futures[i] != nil {
				if _, err := futures[i].Wait(); err != nil {
					t.Fatalf("round %d msg %d: %v", round, i, err)
				}
				m.TouchFraction(0.3)
			}
			f, err := p.CallAsync(m.Msg)
			if err != nil {
				t.Fatalf("round %d msg %d submit: %v", round, i, err)
			}
			futures[i] = f
		}
	}
	for _, f := range futures {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.FuturesPending != 0 || s.Errors != 0 {
		t.Fatalf("pending=%d errors=%d after drain", s.FuturesPending, s.Errors)
	}
}

// flakyAckServer answers requests with 202s; its first connection
// answers exactly one request, reads one more, then hangs up without
// answering it. Later connections answer everything.
func flakyAckServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			first := conns.Add(1) == 1
			go func(c net.Conn, first bool) {
				defer c.Close()
				br := bufio.NewReader(c)
				for n := 0; ; n++ {
					if _, err := transport.ReadRequest(br); err != nil {
						return
					}
					if first && n == 1 {
						return // swallow the second request: its response never comes
					}
					if err := transport.WriteResponse(c, 202, "", nil); err != nil {
						return
					}
				}
			}(c, first)
		}
	}()
	return ln.Addr().String()
}

func TestResponseFailureMarksTemplateSuspect(t *testing.T) {
	addr := flakyAckServer(t)
	p, err := New(Options{
		Addr: addr, Size: 1, Replicas: 1, PipelineDepth: 4,
		Sender: transport.SenderOptions{ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	d := workload.NewDoubles(64, workload.FillIntermediate)
	f1, err := p.CallAsync(d.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Wait(); err != nil {
		t.Fatalf("call 1: %v", err)
	}

	d.TouchFraction(0.25)
	f2, err := p.CallAsync(d.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Wait(); err == nil {
		t.Fatal("call 2 resolved nil; the server swallowed its response")
	}

	// The template is suspect: the next call must rebuild from live
	// values (degraded first-time send) over a repaired connection.
	d.TouchFraction(0.25)
	ci, err := p.Call(d.Msg)
	if err != nil {
		t.Fatalf("call 3: %v", err)
	}
	if ci.Match != core.FirstTime || !ci.Degraded {
		t.Fatalf("call 3 classified %v degraded=%v, want degraded first-time", ci.Match, ci.Degraded)
	}
	if got := p.Stats().DegradedFTS; got != 1 {
		t.Fatalf("degraded_fts = %d, want 1", got)
	}
}

func TestPoolCloseFailsPendingFutures(t *testing.T) {
	// A discard server that never responds leaves futures in flight
	// forever; Close must resolve them with an error, not strand them.
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := New(Options{Addr: srv.Addr(), Size: 1, PipelineDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := workload.NewDoubles(16, workload.FillIntermediate)
	f, err := p.CallAsync(d.Msg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.Wait()
		done <- err
	}()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending future resolved nil across pool Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending future never resolved after pool Close")
	}
	if got := p.Stats().FuturesPending; got != 0 {
		t.Fatalf("futures_pending = %d after Close", got)
	}
}

// TestPipelinedResyncSpans runs a refused patch through a traced
// pipelined pool: the refused attempt's span is closed by its own
// async-complete (not ok), the resubmission's by one that is ok, and
// both carry the stage samples StageHist.Observe puts on a call's
// timeline — serialize and pipeline_queue from the submit, wire only
// from the response that succeeded.
func TestPipelinedResyncSpans(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.Default.Clear()

	var refuse atomic.Bool
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Respond: true,
		Handler: func(req *transport.Request) ([]byte, error) {
			switch req.DeltaMode {
			case transport.DeltaSync:
				req.DeltaAck, req.DeltaAckTID, req.DeltaAckEpoch = true, req.DeltaTID, req.DeltaEpoch
			case transport.DeltaPatch:
				if refuse.Load() {
					return nil, wire.ErrDeltaResync
				}
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := New(Options{Addr: srv.Addr(), Size: 1, Replicas: 1, PipelineDepth: 2, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	d := workload.NewDoubles(16, workload.FillMin)
	call := func() core.CallInfo {
		t.Helper()
		f, err := p.CallAsync(d.Msg)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}
	call()
	if ci := call(); !ci.DeltaSent {
		t.Fatal("second call did not go out as a patch frame")
	}
	refuse.Store(true)
	d.Arr.Set(0, workload.MinDouble2)
	ci := call()
	if !ci.DeltaResync {
		t.Fatal("refused patch not reported as a resync")
	}

	type spanEvents struct {
		complete []int64 // A of each async-complete
		stages   map[trace.Stage]bool
	}
	spans := map[uint64]*spanEvents{}
	var refused uint64
	for _, ev := range trace.Default.Snapshot().Events {
		se := spans[ev.Span]
		if se == nil {
			se = &spanEvents{stages: map[trace.Stage]bool{}}
			spans[ev.Span] = se
		}
		switch ev.Kind {
		case "async-complete":
			se.complete = append(se.complete, ev.A)
		case "stage":
			se.stages[trace.Stage(ev.A)] = true
		case "delta-resync":
			refused = ev.Span
		}
	}
	if refused == 0 || spans[ci.Span] == nil {
		t.Fatalf("spans of the resynced call not found (refused %d, resent %d, %d spans)", refused, ci.Span, len(spans))
	}
	if got := spans[refused].complete; len(got) != 1 || got[0] != 0 {
		t.Errorf("refused attempt's async-complete events = %v, want one with ok=0", got)
	}
	if got := spans[ci.Span].complete; len(got) != 1 || got[0] != 1 {
		t.Errorf("resubmission's async-complete events = %v, want one with ok=1", got)
	}
	for _, st := range []trace.Stage{trace.StageCheckout, trace.StageSerialize, trace.StagePipelineQueue} {
		if !spans[refused].stages[st] || !spans[ci.Span].stages[st] {
			t.Errorf("stage %v missing from a span's timeline (refused %v, resent %v)", st, spans[refused].stages, spans[ci.Span].stages)
		}
	}
	if spans[refused].stages[trace.StageWire] || !spans[ci.Span].stages[trace.StageWire] {
		t.Errorf("wire stage: refused span has it = %v, resubmission has it = %v; want false/true",
			spans[refused].stages[trace.StageWire], spans[ci.Span].stages[trace.StageWire])
	}
}

// TestReadDeadlineSpanIsTheWaitedCalls: a response read that hits its
// deadline is recorded under the span of the call whose response it is,
// not of whichever call the connection serves by then. On a depth-2
// pool against a server that never answers, a's future is waited on in
// a goroutine while b is submitted behind it on the same connection; the
// read deadline of a's response belongs to a.
func TestReadDeadlineSpanIsTheWaitedCalls(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.Default.Clear()

	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{}) // reads, never answers
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := New(Options{
		Addr: srv.Addr(), Size: 1, PipelineDepth: 2,
		Sender: transport.SenderOptions{ReadTimeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	f1, err := p.CallAsync(workload.NewDoubles(4, workload.FillMin).Msg)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := f1.Wait()
		waited <- err
	}()
	f2, err := p.CallAsync(workload.NewInts(4, workload.FillMin).Msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err == nil {
		t.Fatal("a's call succeeded against a server that never answers")
	}
	if _, err := f2.Wait(); err == nil {
		t.Fatal("b's call succeeded against a server that never answers")
	}

	var spans []uint64
	for _, ev := range trace.Default.Snapshot().Events {
		if ev.Kind == "deadline" && ev.A == 1 {
			spans = append(spans, ev.Span)
		}
	}
	if len(spans) != 1 || spans[0] != f1.sub.span {
		t.Fatalf("read deadlines under spans %v, want one under a's span %d (b's is %d)", spans, f1.sub.span, f2.sub.span)
	}
}
