package transport

import (
	"bufio"
	"bytes"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReadResponseVariants(t *testing.T) {
	// 204 has no body.
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(
		"HTTP/1.1 204 No Content\r\nX: y\r\n\r\n")))
	if err != nil || resp.Status != 204 || resp.Body != nil {
		t.Fatalf("204: %+v, %v", resp, err)
	}
	// Chunked response body.
	resp, err = ReadResponse(bufio.NewReader(strings.NewReader(
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")))
	if err != nil || string(resp.Body) != "abc" {
		t.Fatalf("chunked: %+v, %v", resp, err)
	}
	// Errors.
	for name, raw := range map[string]string{
		"empty":      "",
		"garbage":    "NOPE\r\n\r\n",
		"bad status": "HTTP/1.1 abc OK\r\n\r\n",
		"bad header": "HTTP/1.1 200 OK\r\nNoColon\r\n\r\n",
		"no framing": "HTTP/1.1 200 OK\r\n\r\n",
		"short body": "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",
	} {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(""))); err != errConnClosed {
		t.Error("empty response should be ErrConnClosed")
	}
}

func TestStatusText(t *testing.T) {
	var buf bytes.Buffer
	for _, status := range []int{200, 202, 400, 404, 500, 418} {
		buf.Reset()
		if err := WriteResponse(&buf, status, "", nil); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "HTTP/1.1") {
			t.Fatalf("status %d: %q", status, buf.String())
		}
	}
}

func TestSendExpectResponseErrors(t *testing.T) {
	// The server answers 500 to an operation it does not know:
	// ExpectResponse surfaces it as the send's error, and the connection
	// stays in step for the next request.
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond: true,
		Handler: func(req *Request) ([]byte, error) {
			if !bytes.Equal(req.Body, []byte("<sum/>")) {
				return nil, errTest
			}
			return []byte("<sumResponse/>"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s, err := Dial(srv.Addr(), SenderOptions{ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(net.Buffers{[]byte("<nosuchop/>")}); err == nil {
		t.Fatal("500 response to an unknown operation not surfaced")
	}
	if err := s.Send(net.Buffers{[]byte("<sum/>")}); err != nil {
		t.Fatalf("known operation after a 500: %v", err)
	}
}

var errTest = &net.AddrError{Err: "synthetic", Addr: "test"}

func TestServerLogsErrors(t *testing.T) {
	var logBuf lockedBuffer
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Logger: log.New(&logBuf, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Send garbage, close, and give the server a moment to log.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("THIS IS NOT HTTP\r\n\r\n"))
	conn.Close()
	deadline := time.Now().Add(3 * time.Second)
	for logBuf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(logBuf.String(), "read request") {
		t.Fatalf("malformed request not logged: %q", logBuf.String())
	}
}

// lockedBuffer is a bytes.Buffer safe to poll while the server's
// connection goroutine writes log lines into it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServeOnProvidedListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ServerOptions{})
	defer srv.Close()
	sender, err := Dial(srv.Addr(), SenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	if err := sender.Send(net.Buffers{[]byte("payload")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for srv.Requests() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Requests() != 1 {
		t.Fatal("request not received")
	}
}
