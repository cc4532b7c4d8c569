package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// rawPost writes one POST with the given body over conn.
func rawPost(t *testing.T, conn net.Conn, body string) {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatalf("write request: %v", err)
	}
}

// readStatus reads one response and returns its status code.
func readStatus(t *testing.T, br *bufio.Reader) int {
	t.Helper()
	resp, err := ReadResponse(br)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.Status
}

func echoHandler(req *Request) ([]byte, error) {
	return append([]byte(nil), req.Body...), nil
}

// TestShutdownClosesIdleConns: a connection parked between keep-alive
// requests must not hold a drain open.
func TestShutdownClosesIdleConns(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{Handler: echoHandler, Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	rawPost(t, conn, "hi")
	if st := readStatus(t, br); st != 200 {
		t.Fatalf("status = %d", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle drain took %v", elapsed)
	}
	if n := srv.Metrics().Snapshot().DrainAborted; n != 0 {
		t.Fatalf("drain_aborted = %d, want 0", n)
	}
	// The idle connection is closed from the server side.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("idle connection still open after drain")
	}
}

// TestShutdownWaitsForInFlight: a request being handled when Shutdown
// begins completes, and its response is delivered.
func TestShutdownWaitsForInFlight(t *testing.T) {
	entered := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Handler: func(req *Request) ([]byte, error) {
			close(entered)
			time.Sleep(300 * time.Millisecond)
			return []byte("done"), nil
		},
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	rawPost(t, conn, "x")
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := srv.Metrics().Snapshot()
	if st.DrainAborted != 0 {
		t.Fatalf("drain_aborted = %d, want 0", st.DrainAborted)
	}
	// The in-flight request's response was written before the close.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if code := readStatus(t, br); code != 200 {
		t.Fatalf("in-flight response status = %d", code)
	}
}

// TestShutdownDeadlineForceCloses: when the drain deadline expires, the
// wedged request is aborted and counted.
func TestShutdownDeadlineForceCloses(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Handler: func(req *Request) ([]byte, error) {
			close(entered)
			<-release
			return nil, nil
		},
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawPost(t, conn, "x")
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if n := srv.Metrics().Snapshot().DrainAborted; n != 1 {
		t.Fatalf("drain_aborted = %d, want 1", n)
	}
}

// TestMaxConnsFastRejection: a connection over the cap is answered 503
// and closed instead of queueing.
func TestMaxConnsFastRejection(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Handler:  echoHandler,
		Respond:  true,
		MaxConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	fbr := bufio.NewReader(first)
	rawPost(t, first, "a")
	if st := readStatus(t, fbr); st != 200 {
		t.Fatalf("first conn status = %d", st)
	}

	second, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(2 * time.Second))
	if st := readStatus(t, bufio.NewReader(second)); st != 503 {
		t.Fatalf("over-cap conn status = %d, want 503", st)
	}
	if n := srv.Metrics().Snapshot().RejectedConns; n != 1 {
		t.Fatalf("rejected_conns = %d, want 1", n)
	}
	// The first connection keeps working.
	rawPost(t, first, "b")
	if st := readStatus(t, fbr); st != 200 {
		t.Fatalf("first conn second request status = %d", st)
	}
}

// TestMaxInFlightSheds503: a request that cannot take an in-flight slot
// is answered 503 without dispatching, and the connection survives.
func TestMaxInFlightSheds503(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var handled atomic.Int64
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Handler: func(req *Request) ([]byte, error) {
			handled.Add(1)
			entered <- struct{}{}
			<-release
			return []byte("ok"), nil
		},
		Respond:     true,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	rawPost(t, slow, "slow")
	<-entered // the only slot is now held

	fast, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	fbr := bufio.NewReader(fast)
	rawPost(t, fast, "fast")
	fast.SetReadDeadline(time.Now().Add(2 * time.Second))
	if st := readStatus(t, fbr); st != 503 {
		t.Fatalf("over-cap request status = %d, want 503", st)
	}
	if n := srv.Metrics().Snapshot().RejectedRequests; n != 1 {
		t.Fatalf("rejected_requests = %d, want 1", n)
	}
	if n := handled.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}

	close(release)
	slow.SetReadDeadline(time.Now().Add(2 * time.Second))
	if st := readStatus(t, bufio.NewReader(slow)); st != 200 {
		t.Fatalf("slow request status = %d", st)
	}
	// The shed connection can retry once the slot frees.
	rawPost(t, fast, "retry")
	if st := readStatus(t, fbr); st != 200 {
		t.Fatalf("retry status = %d, want 200", st)
	}
}

// TestRequestTimeoutAppliesPerRequest: the deadline arms when a
// request's first byte arrives — a stalled mid-request peer is cut off
// and counted, while an idle keep-alive connection is not.
func TestRequestTimeoutAppliesPerRequest(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Handler:        echoHandler,
		Respond:        true,
		RequestTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Idle longer than the timeout, then send: must still be served.
	idle, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	time.Sleep(300 * time.Millisecond)
	ibr := bufio.NewReader(idle)
	rawPost(t, idle, "late but fine")
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if st := readStatus(t, ibr); st != 200 {
		t.Fatalf("idle-then-send status = %d", st)
	}

	// Stall mid-request: first byte sent, body never completed.
	stall, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	if _, err := fmt.Fprintf(stall, "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for srv.Metrics().Snapshot().DeadlineHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never hit the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConnIdentity: each connection gets a distinct nonzero ConnID and
// its peer address, stable across keep-alive requests.
func TestConnIdentity(t *testing.T) {
	type ident struct {
		id   uint64
		addr string
	}
	ids := make(chan ident, 4)
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Handler: func(req *Request) ([]byte, error) {
			ids <- ident{req.ConnID, req.RemoteAddr}
			return nil, nil
		},
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var got []ident
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		for j := 0; j < 2; j++ {
			rawPost(t, conn, "x")
			readStatus(t, br)
			got = append(got, <-ids)
		}
		conn.Close()
	}
	if got[0].id == 0 || got[0].id != got[1].id {
		t.Fatalf("conn 1 ids: %d, %d (want equal, nonzero)", got[0].id, got[1].id)
	}
	if got[2].id != got[3].id || got[2].id == got[0].id {
		t.Fatalf("conn 2 ids: %d, %d (want equal, distinct from conn 1)", got[2].id, got[3].id)
	}
	if got[0].addr == "" || got[0].addr != got[1].addr {
		t.Fatalf("conn 1 addrs: %q, %q", got[0].addr, got[1].addr)
	}
}

// TestShutdownPokeRacesFirstByte starts a client's next request at the
// moment Shutdown pokes its parked connection. Whichever side wins, the
// one request-read step must behave the same under both schedulers:
// either the request is served whole (its first byte won — it is in
// flight, and the drain waits for it) or the connection closes with
// nothing written (the poke won). Never a partial response, a hang, a
// failed drain or a request counted as aborted.
func TestShutdownPokeRacesFirstByte(t *testing.T) {
	for _, readAhead := range []int{0, 4} {
		t.Run(fmt.Sprintf("readahead=%d", readAhead), func(t *testing.T) {
			served, closed := 0, 0
			for i := 0; i < 40; i++ {
				srv, err := Listen("127.0.0.1:0", ServerOptions{Handler: echoHandler, Respond: true, ReadAhead: readAhead})
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				br := bufio.NewReader(conn)
				rawPost(t, conn, "warm")
				if st := readStatus(t, br); st != 200 {
					t.Fatalf("warm-up status = %d", st)
				}

				// Spread the request's start over the window in which the
				// drain begins: ahead of it, level with it, behind it.
				lead := time.Duration(i%8-4) * 25 * time.Microsecond
				shut := make(chan error, 1)
				go func() {
					time.Sleep(lead)
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					shut <- srv.Shutdown(ctx)
				}()
				time.Sleep(-lead)
				_, werr := fmt.Fprint(conn, "POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nrace")
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				resp, rerr := ReadResponse(br)
				switch {
				case werr == nil && rerr == nil:
					if resp.Status != 200 || string(resp.Body) != "race" {
						t.Fatalf("iteration %d: served %d %q", i, resp.Status, resp.Body)
					}
					served++
				default:
					var ne net.Error
					if errors.As(rerr, &ne) && ne.Timeout() {
						t.Fatalf("iteration %d: neither served nor closed: %v", i, rerr)
					}
					if br.Buffered() != 0 {
						t.Fatalf("iteration %d: connection closed after a partial response (%d bytes)", i, br.Buffered())
					}
					closed++
				}
				if err := <-shut; err != nil {
					t.Fatalf("iteration %d: Shutdown: %v", i, err)
				}
				if n := srv.Metrics().Snapshot().DrainAborted; n != 0 {
					t.Fatalf("iteration %d: drain_aborted = %d", i, n)
				}
				conn.Close()
			}
			t.Logf("served %d, closed %d", served, closed)
		})
	}
}

// TestDrainAnswersArrivedRequests: a pipelining client has sent A, B
// and C, and the handler is still on A when Shutdown begins. All three
// reached the server before the drain did, so a clean drain answers all
// three — whether C waits in the connection's read buffer or still in
// its socket, and under either scheduler.
func TestDrainAnswersArrivedRequests(t *testing.T) {
	for _, c := range []struct {
		name      string
		readAhead int
		late      bool // C is written only once the server has read B
	}{
		{"readahead/buffered", 1, false},
		{"readahead/socket", 1, true},
		{"serial/buffered", 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			srv, err := Listen("127.0.0.1:0", ServerOptions{
				Respond:   true,
				ReadAhead: c.readAhead,
				Handler: func(req *Request) ([]byte, error) {
					if string(req.Body) == "A" {
						close(entered)
						<-release
					}
					return append([]byte(nil), req.Body...), nil
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
			post := func(bodies ...string) {
				var b []byte
				for _, body := range bodies {
					b = fmt.Appendf(b, "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
				}
				if _, err := conn.Write(b); err != nil {
					t.Fatal(err)
				}
			}
			until := func(what string, cond func() bool) {
				for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}

			if c.late {
				post("A", "B")
			} else {
				post("A", "B", "C")
			}
			<-entered
			// Under read-ahead the reader takes B too, then waits for a
			// free Request (the ring holds two); the serial loop reads
			// nothing while A is handled.
			read := int64(1)
			if c.readAhead > 0 {
				read = 2
			}
			until("the server to read ahead", func() bool { return srv.Requests() == read })
			if c.late {
				post("C")
				time.Sleep(20 * time.Millisecond) // into the server's socket
			}

			shut := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				shut <- srv.Shutdown(ctx)
			}()
			until("the drain to begin", srv.draining.Load)
			close(release)

			br := bufio.NewReader(conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for _, want := range []string{"A", "B", "C"} {
				resp, err := ReadResponse(br)
				if err != nil {
					t.Fatalf("response to %s: %v", want, err)
				}
				if resp.Status != 200 || string(resp.Body) != want {
					t.Fatalf("response to %s: %d %q", want, resp.Status, resp.Body)
				}
			}
			if err := <-shut; err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if n := srv.Metrics().Snapshot().DrainAborted; n != 0 {
				t.Fatalf("drain_aborted = %d, want 0", n)
			}
			// Nothing owed and nothing arrived: the connection closes.
			if _, err := br.ReadByte(); err == nil {
				t.Fatal("connection still open after the drain")
			}
		})
	}
}
