package transport

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeOnlyConn is a fake net.Conn capturing written bytes; reads block
// forever (never used — ExpectResponse is off).
type writeOnlyConn struct{ buf *bytes.Buffer }

func (c writeOnlyConn) Read([]byte) (int, error)         { select {} }
func (c writeOnlyConn) Write(b []byte) (int, error)      { return c.buf.Write(b) }
func (c writeOnlyConn) Close() error                     { return nil }
func (c writeOnlyConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c writeOnlyConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c writeOnlyConn) SetDeadline(time.Time) error      { return nil }
func (c writeOnlyConn) SetReadDeadline(time.Time) error  { return nil }
func (c writeOnlyConn) SetWriteDeadline(time.Time) error { return nil }

// TestTraceSpanHeaderRoundTrip sends with a span id set and checks the
// X-BSoap-Trace header reaches the server-side Request parsed back into
// the same id; a second request without a span must not leak the first
// one (keep-alive reuse of the parsed Request).
func TestTraceSpanHeaderRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	s := NewSender(client, SenderOptions{Target: "/svc"})
	s.TraceSpan = 0xdeadbeefcafe

	br := bufio.NewReader(server)
	var wg sync.WaitGroup
	var req Request
	var rerr error
	read := func() {
		defer wg.Done()
		rerr = ReadRequestInto(br, &req)
	}

	wg.Add(1)
	go read()
	if err := s.Send(net.Buffers{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if req.TraceSpan != 0xdeadbeefcafe {
		t.Fatalf("TraceSpan = %#x, want 0xdeadbeefcafe (headers: %v)", req.TraceSpan, req.Headers)
	}

	// Span cleared: next request on the same connection must carry none.
	s.TraceSpan = 0
	wg.Add(1)
	go read()
	if err := s.Send(net.Buffers{[]byte("y")}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if _, ok := req.Headers["x-bsoap-trace"]; ok {
		t.Fatalf("cleared span still on the wire: %v", req.Headers)
	}
	if req.TraceSpan != 0 {
		t.Fatalf("TraceSpan leaked across keep-alive requests: %#x", req.TraceSpan)
	}
}

// TestTraceSpanHeaderParsing pins the parse: full 64-bit hex range,
// garbage ignored rather than erroring the request.
func TestTraceSpanHeaderParsing(t *testing.T) {
	read := func(hdr string) *Request {
		raw := "POST / HTTP/1.1\r\n" + hdr + "Content-Length: 1\r\n\r\nx"
		req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatalf("header %q: %v", hdr, err)
		}
		return req
	}
	if req := read("X-BSoap-Trace: ffffffffffffffff\r\n"); req.TraceSpan != ^uint64(0) {
		t.Fatalf("max span = %#x", req.TraceSpan)
	}
	if req := read("X-BSoap-Trace: 2a\r\n"); req.TraceSpan != 0x2a {
		t.Fatalf("small span = %#x", req.TraceSpan)
	}
	for _, bad := range []string{
		"X-BSoap-Trace: \r\n",                  // empty
		"X-BSoap-Trace: zzz\r\n",               // not hex
		"X-BSoap-Trace: 10000000000000000\r\n", // 17 digits: overflows
	} {
		if req := read(bad); req.TraceSpan != 0 {
			t.Fatalf("%q parsed to %#x, want 0", bad, req.TraceSpan)
		}
	}
}

// TestTraceHeaderWriteAllocFree gates the propagation cost: writing the
// span header must not allocate (the engines' steady-state zero-alloc
// guarantee holds with tracing enabled).
func TestTraceHeaderWriteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	var buf bytes.Buffer
	s := NewSender(writeOnlyConn{&buf}, SenderOptions{})
	s.TraceSpan = 0x1234abcd5678
	payload := net.Buffers{[]byte("<a>1</a>")}
	if got := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := s.Send(payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Send with TraceSpan allocates %v/op, want 0", got)
	}
	if !bytes.Contains(buf.Bytes(), []byte("X-BSoap-Trace: 1234abcd5678\r\n")) {
		t.Fatalf("header missing from wire bytes:\n%s", buf.Bytes())
	}
}
