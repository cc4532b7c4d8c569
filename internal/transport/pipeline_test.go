package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submit is Sender.Submit with a Pending of its own, the shape most
// tests want.
func submit(pl *Sender, bufs net.Buffers, an Annotation) (*Pending, error) {
	p := new(Pending)
	return p, pl.Submit(p, bufs, an)
}

// waitWatched is Wait under a 10 s watchdog: a Pending that never
// resolves fails the test instead of hanging it.
func waitWatched(t *testing.T, p *Pending) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("pending never resolved")
		return nil
	}
}

// pipelineOver dials a pipelined sender against srv.
func pipelineOver(t *testing.T, srv *Server, depth int) *Sender {
	t.Helper()
	s, err := Dial(srv.Addr(), SenderOptions{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPipelineOrderedCompletion(t *testing.T) {
	var mu sync.Mutex
	var got []string
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond: true,
		Handler: func(req *Request) ([]byte, error) {
			mu.Lock()
			got = append(got, string(req.Body))
			mu.Unlock()
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pl := pipelineOver(t, srv, 4)
	const n = 32
	pending := make([]*Pending, n)
	for i := range pending {
		p, err := submit(pl, net.Buffers{[]byte(fmt.Sprintf("req-%03d", i))}, Annotation{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pending[i] = p
	}
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		if p.status != 200 {
			t.Fatalf("pending %d status %d", i, p.status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("server saw %d requests", len(got))
	}
	for i, b := range got {
		if want := fmt.Sprintf("req-%03d", i); b != want {
			t.Fatalf("request %d arrived as %q", i, b)
		}
	}
}

func TestPipelineDepthBoundAndStalls(t *testing.T) {
	release := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond:   true,
		ReadAhead: 8,
		Handler: func(req *Request) ([]byte, error) {
			<-release
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pl := pipelineOver(t, srv, 2)
	var stalls atomic.Int64
	pl.OnStall = func() { stalls.Add(1) }

	// Two submits fill the pipeline without stalling.
	for i := 0; i < 2; i++ {
		if _, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := pl.InFlight(); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	// The third must stall until a response frees a slot.
	done := make(chan error, 1)
	go func() {
		_, err := submit(pl, net.Buffers{[]byte("y")}, Annotation{})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("submit over depth returned early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stalls.Load() != 1 {
		t.Fatalf("stalls = %d, want 1", stalls.Load())
	}
}

func TestPipelineNon2xxFailsOnlyThatPending(t *testing.T) {
	var n atomic.Int64
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond: true,
		Handler: func(req *Request) ([]byte, error) {
			if n.Add(1) == 2 {
				return nil, fmt.Errorf("boom")
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pl := pipelineOver(t, srv, 4)
	var pending []*Pending
	for i := 0; i < 3; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if err := pending[0].Wait(); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := pending[1].Wait(); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("second should fail with a 500, got %v", err)
	}
	if err := pending[2].Wait(); err != nil {
		t.Fatalf("third: %v (a non-2xx must not break the pipeline)", err)
	}
	if pl.Broken() {
		t.Fatal("pipeline broken after an orderly non-2xx")
	}
}

// fakePeer reads `reads` requests off its end of a pipe, answers the
// first `answer` of them, then closes the connection. Reading everything
// first matters on a synchronous net.Pipe: the client's writes block
// until consumed, so the peer must drain all submits before hanging up.
func fakePeer(t *testing.T, conn net.Conn, reads, answer int) {
	t.Helper()
	go func() {
		br := bufio.NewReader(conn)
		for i := 0; i < reads; i++ {
			if _, err := ReadRequest(br); err != nil {
				conn.Close()
				return
			}
		}
		for i := 0; i < answer; i++ {
			if err := WriteResponse(conn, 200, "", nil); err != nil {
				conn.Close()
				return
			}
		}
		conn.Close()
	}()
}

func TestPipelineBreakFailsAllPending(t *testing.T) {
	client, server := net.Pipe()
	fakePeer(t, server, 3, 1) // one response, then the connection dies
	pl := NewSender(client, SenderOptions{Depth: 4})
	defer pl.Close()

	var pending []*Pending
	for i := 0; i < 3; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if err := pending[0].Wait(); err != nil {
		t.Fatalf("first: %v", err)
	}
	for i, p := range pending[1:] {
		if err := p.Wait(); err == nil {
			t.Fatalf("pending %d resolved nil after connection loss", i+1)
		}
	}
	if !pl.Broken() {
		t.Fatal("pipeline not broken after read failure")
	}
	if _, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{}); err == nil {
		t.Fatal("submit on a broken pipeline accepted")
	}
}

func TestPipelineCloseResolvesEverything(t *testing.T) {
	client, server := net.Pipe()
	// The peer reads requests but never answers.
	go func() {
		br := bufio.NewReader(server)
		for {
			if _, err := ReadRequest(br); err != nil {
				return
			}
		}
	}()
	defer server.Close()

	pl := NewSender(client, SenderOptions{Depth: 2})
	var pending []*Pending
	for i := 0; i < 2; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pending {
		// Resolved by Close itself, not by a later read: nobody had
		// waited on them yet.
		if !resolved(pl, p) {
			t.Fatalf("pending %d unresolved after Close", i)
		}
		if err := waitWatched(t, p); !errors.Is(err, errSenderClosed) {
			t.Fatalf("pending %d: %v, want the closed error", i, err)
		}
	}
}

// resolved reports whether p has resolved, without waiting on it.
func resolved(pl *Sender, p *Pending) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return p.done
}

// TestPipelineWaitReadsOlderResponses: waiting on the last of four
// pendings reads the three responses ahead of it and resolves each
// request with its own, in order — a 500 in the middle fails only its
// own Pending.
func TestPipelineWaitReadsOlderResponses(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond: true,
		Handler: func(req *Request) ([]byte, error) {
			if string(req.Body) == "req-1" {
				return nil, fmt.Errorf("boom")
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pl := pipelineOver(t, srv, 4)
	var completions atomic.Int64
	pl.OnComplete = func() { completions.Add(1) }
	var pending []*Pending
	for i := 0; i < 4; i++ {
		p, err := submit(pl, net.Buffers{[]byte(fmt.Sprintf("req-%d", i))}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if err := waitWatched(t, pending[3]); err != nil {
		t.Fatalf("fourth: %v", err)
	}
	if got := completions.Load(); got != 4 {
		t.Fatalf("%d resolved after the fourth's wait, want 4", got)
	}
	for i, want := range []int{200, 500, 200} {
		p := pending[i]
		if !resolved(pl, p) {
			t.Fatalf("pending %d unresolved after a later one's wait", i)
		}
		if p.status != want || (p.err != nil) != (want != 200) {
			t.Fatalf("pending %d: status %d err %v, want status %d", i, p.status, p.err, want)
		}
	}
	if pl.Broken() {
		t.Fatal("pipeline broken by an orderly 500")
	}
}

// TestPipelineConcurrentWaiters: goroutines submitting and waiting on
// one pipeline at once (run under -race) each get their own response.
func TestPipelineConcurrentWaiters(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{Respond: true, ReadAhead: 4, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pl := pipelineOver(t, srv, 4)
	const workers, calls = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				p, err := submit(pl, net.Buffers{[]byte(fmt.Sprintf("w%d-%d", w, i))}, Annotation{})
				if err == nil {
					err = p.Wait()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.Requests(); got != workers*calls {
		t.Fatalf("server saw %d requests, want %d", got, workers*calls)
	}
}

// TestPipelineCloseDuringRead: Close while a waiter is blocked reading a
// response that will never come resolves that waiter and every request
// queued behind it with the closed error.
func TestPipelineCloseDuringRead(t *testing.T) {
	client, server := net.Pipe()
	go func() { // reads requests, never answers
		br := bufio.NewReader(server)
		for {
			if _, err := ReadRequest(br); err != nil {
				return
			}
		}
	}()
	defer server.Close()

	pl := NewSender(client, SenderOptions{Depth: 4})
	var pending []*Pending
	for i := 0; i < 3; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	results := make(chan error, len(pending))
	for _, p := range pending {
		go func(p *Pending) { results <- p.Wait() }(p)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		pl.mu.Lock()
		reading := pl.reading
		pl.mu.Unlock()
		if reading {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no waiter started reading")
		}
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	for range pending {
		select {
		case err := <-results:
			if !errors.Is(err, errSenderClosed) {
				t.Fatalf("waiter got %v, want the closed error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter never returned after Close")
		}
	}
}

// TestPipelineSubmitAtDepthReads: a Submit that finds the pipeline at
// depth reads the oldest response itself — exactly one, enough to free
// a slot — and reports one stall.
func TestPipelineSubmitAtDepthReads(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{Respond: true, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pl := pipelineOver(t, srv, 2)
	var stalls atomic.Int64
	pl.OnStall = func() { stalls.Add(1) }
	var pending []*Pending
	for i := 0; i < 3; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if got := stalls.Load(); got != 1 {
		t.Fatalf("stalls = %d, want 1", got)
	}
	if !resolved(pl, pending[0]) || pending[0].status != 200 {
		t.Fatalf("oldest not resolved by the submit at depth (status %d)", pending[0].status)
	}
	if resolved(pl, pending[1]) {
		t.Fatal("the submit at depth read more than one response")
	}
	if got := pl.InFlight(); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	for i, p := range pending[1:] {
		if err := waitWatched(t, p); err != nil {
			t.Fatalf("pending %d: %v", i+1, err)
		}
	}
}

// TestPipelineStartsNoGoroutine: a pipeline runs on its callers'
// goroutines only. Beside the test's own, the one extra goroutine while
// it works is the server's for the connection, and after Close the count
// is back where it started.
func TestPipelineStartsNoGoroutine(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{Respond: true, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := runtime.NumGoroutine()

	pl, err := Dial(srv.Addr(), SenderOptions{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err == nil {
			err = p.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > start+1 {
		t.Fatalf("%d goroutines while pipelining, want at most %d (the server's connection)", got, start+1)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), start)
		}
	}
}

func TestPipelineOnCompleteFiresOncePerPending(t *testing.T) {
	client, server := net.Pipe()
	fakePeer(t, server, 4, 2)
	pl := NewSender(client, SenderOptions{Depth: 4})
	var completions atomic.Int64
	pl.OnComplete = func() { completions.Add(1) }

	var pending []*Pending
	for i := 0; i < 4; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			break // the break may surface as a write error on later submits
		}
		pending = append(pending, p)
	}
	pl.Close()
	for _, p := range pending {
		p.Wait()
	}
	if got := completions.Load(); got != int64(len(pending)) {
		t.Fatalf("OnComplete fired %d times for %d pendings", got, len(pending))
	}
}

// TestServerReadAheadWireOrder drives a raw pipelined byte stream at a
// read-ahead server and checks the responses come back strictly in
// request order even when the first request is the slowest to handle.
func TestServerReadAheadWireOrder(t *testing.T) {
	firstGate := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond:   true,
		ReadAhead: 4,
		Handler: func(req *Request) ([]byte, error) {
			body := string(req.Body)
			if body == "req-0" {
				<-firstGate
			}
			return []byte("echo:" + body), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf("req-%d", i)
		fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}
	// All five are on the wire; the handler for req-0 is still blocked,
	// so the read-ahead queue is doing the buffering. Release it and the
	// responses must arrive 0..4.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(firstGate)
	}()
	br := bufio.NewReader(conn)
	for i := 0; i < 5; i++ {
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf("echo:req-%d", i); string(resp.Body) != want {
			t.Fatalf("response %d body %q, want %q", i, resp.Body, want)
		}
	}
}

func TestServerReadAheadDrain(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond:   true,
		ReadAhead: 4,
		Handler: func(req *Request) ([]byte, error) {
			time.Sleep(2 * time.Millisecond)
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	pl := pipelineOver(t, srv, 4)
	var pending []*Pending
	for i := 0; i < 8; i++ {
		p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.Metrics().Snapshot().DrainAborted; got != 0 {
		t.Fatalf("drain aborted %d requests", got)
	}
	// Every request submitted before the drain must have been answered.
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d lost to drain: %v", i, err)
		}
	}
}

func TestServerReadAheadIdleDrainIsImmediate(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond:   true,
		ReadAhead: 4,
		Handler:   func(req *Request) ([]byte, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := pipelineOver(t, srv, 2)
	p, err := submit(pl, net.Buffers{[]byte("x")}, Annotation{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// The connection is parked idle; Shutdown must not hang on it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown of idle read-ahead conn: %v", err)
	}
}

// Metrics returns the server's registry (the one from ServerOptions, or
// the private default).
func (s *Server) Metrics() *ServerMetrics { return s.metrics }
