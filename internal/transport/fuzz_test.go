package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// FuzzReadRequest holds the request parser to net/http's: it never
// panics, never accepts an encoded body, and on every input it either
// refuses or agrees with http.ReadRequest on the method, the target,
// the body and where the next request starts. It may be stricter than
// net/http, never looser.
func FuzzReadRequest(f *testing.F) {
	seeds := []string{
		"",
		"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"GET /wsdl HTTP/1.1\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 999999999999999999999\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Encoding: gzip\r\nContent-Length: 28\r\n\r\n" +
			"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\x03\xb3\x49\xb4\x33\xb4\xd1\x4f\xb4\x03\x00\x68\x28\xdb\x0c\x08\x00\x00\x00",
		"POST /a HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhiGET / HTTP/1.1\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n2;x=y\r\nhi\r\n0\r\nT: v\r\n\r\nnext",
		"POST / HTTP/1.1\r\nHost: t\r\nTrailer: Content-Length\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n00000000000000003\r\nabc\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX: a\r\n Y\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		br := bufio.NewReader(r)
		req, err := ReadRequest(br)
		if err == nil && req == nil {
			t.Fatal("nil request without error")
		}
		if err != nil {
			return
		}
		if _, ok := req.Headers["content-encoding"]; ok {
			t.Fatal("encoded body accepted")
		}
		used := len(data) - r.Len() - br.Buffered()

		or := bytes.NewReader(data)
		obr := bufio.NewReader(or)
		oreq, err := http.ReadRequest(obr)
		if err != nil {
			t.Fatalf("accepted what net/http refuses (%v): %q", err, data)
		}
		obody, err := io.ReadAll(oreq.Body)
		if err != nil {
			t.Fatalf("accepted a body net/http cannot read (%v): %q", err, data)
		}
		if req.Method != oreq.Method || req.Target != oreq.RequestURI {
			t.Fatalf("request line %s %s, net/http reads %s %s: %q", req.Method, req.Target, oreq.Method, oreq.RequestURI, data)
		}
		if !bytes.Equal(req.Body, obody) {
			t.Fatalf("body %q, net/http reads %q: %q", req.Body, obody, data)
		}
		if oused := len(data) - or.Len() - obr.Buffered(); used != oused {
			t.Fatalf("next request at byte %d, net/http says %d: %q", used, oused, data)
		}
	})
}

// scriptedConn is a fake net.Conn whose read side replays a canned byte
// stream (then EOF) and whose write side discards — the response-stream
// analogue of strings.Reader for fuzzing the pipelined reader.
type scriptedConn struct {
	mu     sync.Mutex
	r      *bytes.Reader
	closed bool
}

func (c *scriptedConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.r.Read(b)
}

func (c *scriptedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	return len(b), nil
}

func (c *scriptedConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *scriptedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

var _ io.ReadWriteCloser = (*scriptedConn)(nil)

// FuzzPipelineResponses feeds an arbitrary byte stream to the pipelined
// response reader: however the stream parses (valid responses, garbage
// framing, truncation mid-header or mid-body), the pipeline must not
// panic, and every submitted Pending must resolve — with its in-order
// response or with the pipeline's sticky error once the stream breaks.
func FuzzPipelineResponses(f *testing.F) {
	ok := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
	seeds := []string{
		"",
		ok,
		ok + ok + ok,
		ok + "HTTP/1.1 500 Oops\r\nContent-Length: 0\r\n\r\n" + ok,
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\ntruncated",
		"HTTP/1.1 200\r\n\r\n",
		"garbage that is not HTTP at all",
		ok[:17],
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &scriptedConn{r: bytes.NewReader(data)}
		pl := NewSender(conn, SenderOptions{Depth: 4})
		var pending []*Pending
		for i := 0; i < 3; i++ {
			p, err := submit(pl, net.Buffers{[]byte("<m/>")}, Annotation{})
			if err != nil {
				break // pipeline already broken by a parsed-garbage read
			}
			pending = append(pending, p)
		}
		for i, p := range pending {
			if waitWatched(t, p) == nil && p.status/100 != 2 {
				t.Fatalf("pending %d: nil error for status %d", i, p.status)
			}
		}
		pl.Close()
	})
}
