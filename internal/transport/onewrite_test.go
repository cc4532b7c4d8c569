package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bsoap/internal/wire"
)

// writeLog records the bytes of every Write on each connection a
// countingListener accepts, in accept order.
type writeLog struct {
	mu     sync.Mutex
	writes [][]string
}

func (l *writeLog) conn(i int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.writes) {
		return nil
	}
	return append([]string(nil), l.writes[i]...)
}

type countingListener struct {
	net.Listener
	log *writeLog
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	l.log.writes = append(l.log.writes, nil)
	return &countingConn{Conn: c, log: l.log, i: len(l.log.writes) - 1}, nil
}

// countingConn is a wrapped conn, as the benchmark's traced pass and
// faultwire wrap theirs: net.Buffers would reach it one Write per buffer.
type countingConn struct {
	net.Conn
	log *writeLog
	i   int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.log.mu.Lock()
	c.log.writes[c.i] = append(c.log.writes[c.i], string(b))
	c.log.mu.Unlock()
	return c.Conn.Write(b)
}

// serveCounting starts a server whose connections record their Writes.
func serveCounting(t *testing.T, opts ServerOptions) (*Server, *writeLog) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &writeLog{}
	srv := Serve(countingListener{Listener: ln, log: log}, opts)
	t.Cleanup(func() { srv.Close() })
	return srv, log
}

// dialRaw opens a client connection with a read deadline.
func dialRaw(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

// wantResponse is WriteResponse's output for the same status, content
// type and body.
func wantResponse(status int, contentType, body string) string {
	var b bytes.Buffer
	if err := WriteResponse(&b, status, contentType, []byte(body)); err != nil {
		panic(err)
	}
	return b.String()
}

// inResp builds body where a handler should: in the Resp the server
// handed out.
func inResp(req *Request, body string) []byte {
	req.Resp = append(req.Resp[:0], body...)
	return req.Resp
}

// oneWrite requires connection i's Writes to be exactly one, equal to
// want.
func oneWrite(t *testing.T, log *writeLog, i int, want string) {
	t.Helper()
	got := log.conn(i)
	if len(got) != 1 {
		t.Fatalf("response took %d Writes, want 1: %q", len(got), got)
	}
	if got[0] != want {
		t.Fatalf("response bytes\n got %q\nwant %q", got[0], want)
	}
}

// TestOneWritePerResponse drives every kind of answer the Server writes —
// 200 with a body, 200 with a delta ack, the discard server's 202, 409
// resync, 500 and the in-flight 503 — under both schedulers, and requires
// each to leave in exactly one Write with WriteResponse's bytes.
func TestOneWritePerResponse(t *testing.T) {
	const ct = "text/xml; charset=utf-8"
	ack := "X-BSoap-Delta: " + string(wire.AppendDeltaAck(nil, 7, 3)) + "\r\n"
	cases := []struct {
		name    string
		handler Handler
		want    string
		shed    bool // answered while another connection holds the only slot
	}{
		{"200-body", func(req *Request) ([]byte, error) { return inResp(req, "<ok/>"), nil },
			wantResponse(200, ct, "<ok/>"), false},
		{"200-ack", func(req *Request) ([]byte, error) {
			req.DeltaAck, req.DeltaAckTID, req.DeltaAckEpoch = true, 7, 3
			return inResp(req, "<ok/>"), nil
		}, "HTTP/1.1 200 OK\r\nContent-Type: " + ct + "\r\n" + ack + "Content-Length: 5\r\n\r\n<ok/>", false},
		{"202-discard", nil, wantResponse(202, "", ""), false},
		{"409-resync", func(*Request) ([]byte, error) { return nil, fmt.Errorf("stale base: %w", wire.ErrDeltaResync) },
			"HTTP/1.1 409 Conflict\r\nX-BSoap-Delta: resync\r\nContent-Length: 0\r\n\r\n", false},
		{"500", func(*Request) ([]byte, error) { return nil, errors.New("boom") },
			wantResponse(500, "text/plain", "boom"), false},
		{"503-shed", func(req *Request) ([]byte, error) { return inResp(req, "<ok/>"), nil },
			wantResponse(503, "", ""), true},
	}
	for _, readAhead := range []int{0, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/readahead%d", c.name, readAhead), func(t *testing.T) {
				opts := ServerOptions{Handler: c.handler, Respond: true, ReadAhead: readAhead}
				entered, release := make(chan struct{}), make(chan struct{})
				if c.shed {
					inner := c.handler
					opts.MaxInFlight = 1
					opts.Handler = func(req *Request) ([]byte, error) {
						close(entered)
						<-release
						return inner(req)
					}
				}
				srv, log := serveCounting(t, opts)
				// Runs before the server's Close, which waits for the handler.
				unblock := sync.OnceFunc(func() { close(release) })
				t.Cleanup(unblock)
				conn := 0
				var hold net.Conn
				var holdBr *bufio.Reader
				if c.shed {
					hold, holdBr = dialRaw(t, srv)
					rawPost(t, hold, "hold")
					<-entered // the only slot is held by connection 0
					conn = 1
				}
				cl, br := dialRaw(t, srv)
				rawPost(t, cl, "req")
				readStatus(t, br)
				oneWrite(t, log, conn, c.want)
				if c.shed {
					unblock()
					readStatus(t, holdBr)
					oneWrite(t, log, 0, wantResponse(200, ct, "<ok/>"))
				}
			})
		}
	}
}

// TestResponseBodyOutsideHeadroom: a body the handler did not build in
// the Resp it was handed — its own slice, nil, a Resp grown past the
// buffer — is copied behind the header and still leaves in one Write
// with the same bytes, and the buffer kept after the growth lets the next
// request build in place again.
func TestResponseBodyOutsideHeadroom(t *testing.T) {
	const ct = "text/xml; charset=utf-8"
	big := strings.Repeat("<v>1.5</v>", 500)
	steps := []struct {
		name string
		body func(req *Request) []byte
		want string
	}{
		{"fresh slice", func(*Request) []byte { return []byte("<fresh/>") }, "<fresh/>"},
		{"nil", func(*Request) []byte { return nil }, ""},
		{"Resp grown past capacity", func(req *Request) []byte { return inResp(req, big) }, big},
		{"warm after growth", func(req *Request) []byte { return inResp(req, big) }, big},
	}
	for _, readAhead := range []int{0, 4} {
		t.Run(fmt.Sprintf("readahead%d", readAhead), func(t *testing.T) {
			var mu sync.Mutex
			var inPlace []bool // per step: the body sits right behind the headroom
			srv, log := serveCounting(t, ServerOptions{
				Respond: true, ReadAhead: readAhead,
				Handler: func(req *Request) ([]byte, error) {
					mu.Lock()
					defer mu.Unlock()
					body := steps[len(inPlace)].body(req)
					inPlace = append(inPlace, len(body) > 0 &&
						len(req.out) >= respHeaderBytes+len(body) && &body[0] == &req.out[respHeaderBytes])
					return body, nil
				},
			})
			cl, br := dialRaw(t, srv)
			for _, st := range steps {
				rawPost(t, cl, "req")
				if readStatus(t, br) != 200 {
					t.Fatalf("%s: not answered 200", st.name)
				}
			}
			got := log.conn(0)
			if len(got) != len(steps) {
				t.Fatalf("%d responses took %d Writes", len(steps), len(got))
			}
			for i, st := range steps {
				if w := wantResponse(200, ct, st.want); got[i] != w {
					t.Errorf("%s: response bytes\n got %q\nwant %q", st.name, got[i], w)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if inPlace[2] {
				t.Error("the grown Resp still fit the buffer: the growth case tests nothing")
			}
			// Under read-ahead the next request is another Request of the
			// ring, whose buffer has not grown yet.
			if readAhead == 0 && !inPlace[3] {
				t.Error("the request after the growth did not build its body in place")
			}
		})
	}
}
