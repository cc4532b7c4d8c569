package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipelineOver dials a pipelined sender against srv.
func pipelineOver(t *testing.T, srv *Server, depth int) *Pipeline {
	t.Helper()
	s, err := Dial(srv.Addr(), SenderOptions{Version: HTTP11})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(s, depth)
	t.Cleanup(func() {
		pl.Close()
		s.Close()
	})
	return pl
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
		p, err := pl.Submit(net.Buffers{[]byte(fmt.Sprintf("req-%03d", i))}, Annotation{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pending[i] = p
	}
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		if p.Status() != 200 {
			t.Fatalf("pending %d status %d", i, p.Status())
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
		if _, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := pl.InFlight(); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	// The third must stall until a response frees a slot.
	done := make(chan error, 1)
	go func() {
		_, err := pl.Submit(net.Buffers{[]byte("y")}, Annotation{})
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
		p, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{})
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
	s := NewSender(client, SenderOptions{Version: HTTP11})
	pl := NewPipeline(s, 4)
	defer pl.Close()

	var pending []*Pending
	for i := 0; i < 3; i++ {
		p, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{})
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
	if _, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{}); err == nil {
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

	s := NewSender(client, SenderOptions{Version: HTTP11})
	pl := NewPipeline(s, 2)
	var pending []*Pending
	for i := 0; i < 2; i++ {
		p, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pending {
		select {
		case <-p.Done():
		default:
			t.Fatalf("pending %d unresolved after Close", i)
		}
		if err := p.Wait(); !errors.Is(err, ErrPipelineClosed) {
			t.Fatalf("pending %d: %v, want ErrPipelineClosed", i, err)
		}
	}
}

func TestPipelineOnCompleteFiresOncePerPending(t *testing.T) {
	client, server := net.Pipe()
	fakePeer(t, server, 4, 2)
	s := NewSender(client, SenderOptions{Version: HTTP11})
	pl := NewPipeline(s, 4)
	var completions atomic.Int64
	pl.OnComplete = func() { completions.Add(1) }

	var pending []*Pending
	for i := 0; i < 4; i++ {
		p, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{})
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
		p, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{})
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
	p, err := pl.Submit(net.Buffers{[]byte("x")}, Annotation{})
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
