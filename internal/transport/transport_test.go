package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReadRequestContentLength(t *testing.T) {
	raw := "POST /svc HTTP/1.1\r\nHost: x\r\nContent-Type: text/xml\r\nContent-Length: 5\r\n\r\nhello"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Target != "/svc" || req.Proto != "HTTP/1.1" {
		t.Fatalf("request line: %+v", req)
	}
	if req.Headers["content-type"] != "text/xml" {
		t.Fatalf("headers: %+v", req.Headers)
	}
	if string(req.Body) != "hello" {
		t.Fatalf("body: %q", req.Body)
	}
}

func TestReadRequestChunked(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello world" {
		t.Fatalf("body: %q", req.Body)
	}
}

func TestReadRequestChunkedWithExtensionAndTrailer(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "abc" {
		t.Fatalf("body: %q", req.Body)
	}
}

func TestReadRequestErrors(t *testing.T) {
	cases := map[string]string{
		"empty connection":      "",
		"garbage request line":  "NOT-HTTP\r\n\r\n",
		"bad header":            "POST / HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"missing framing":       "POST / HTTP/1.1\r\nHost: x\r\n\r\n",
		"negative length":       "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
		"truncated body":        "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
		"bad chunk size":        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"bad chunk terminator":  "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX",
		"unsupported encoding":  "POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
		"eof inside chunk body": "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
	}
	for name, raw := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(""))); err != errConnClosed {
		t.Error("empty connection should be ErrConnClosed")
	}
}

// TestRequestFramingHolesRejected feeds the request spellings two HTTP
// parsers may frame differently to ReadRequestInto and to a live
// responding server. Each is refused: the parse fails, and the server
// answers one 400, counts no request and closes the connection — a GET
// whose Content-Length covers a complete POST must not come back as two
// requests. The accepted rows pin what the checks leave alone.
func TestRequestFramingHolesRejected(t *testing.T) {
	post := "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi"
	cases := []struct {
		name, raw string
		ok        bool
	}{
		{"GET with a body", "GET /wsdl HTTP/1.1\r\nHost: t\r\nContent-Length: " + strconv.Itoa(len(post)) + "\r\n\r\n" + post, false},
		{"HEAD with a body", "HEAD / HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", false},
		{"GET with chunked framing", "GET / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", false},
		{"conflicting Content-Length", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello", false},
		{"space before colon", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length : 2\r\n\r\nhi", false},
		{"obs-fold", "POST / HTTP/1.1\r\nHost: t\r\nX-A: b\r\n Content-Length: 2\r\n\r\nhi", false},
		{"control byte in a header value", "POST / HTTP/1.1\r\nHost: t\r\nX: a\x00b\r\nContent-Length: 2\r\n\r\nhi", false},
		{"two spaces after the method", "POST  / HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", false},
		{"repeated Host", "POST / HTTP/1.1\r\nHost: t\r\nHost: u\r\nContent-Length: 2\r\n\r\nhi", false},
		{"leading VT in a header value", "POST / HTTP/1.1\r\nHost: t\r\nX: \va\r\nContent-Length: 2\r\n\r\nhi", false},
		{"trailing FF in a header value", "POST / HTTP/1.1\r\nHost: t\r\nX: a\f\r\nContent-Length: 2\r\n\r\nhi", false},
		// Found by FuzzReadRequest's net/http oracle: each was read here
		// and refused there.
		{"malformed version", "0 0 0\nContent-Length:0\n\n000", false},
		{"version other than HTTP/1.1", "POST / HTTP/1.0\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", false},
		{"target not in origin form", "POST svc HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", false},
		{"bad escape in the target", "POST /%zz HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", false},
		{"method not a token", "PO@ST / HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", false},
		{"empty header name", "0 / HTTP/1.1\n:\nContent-Length:0\n\n00", false},
		{"chunked body ended by a bare LF", "0 / HTTP/1.1\nTrAnsfer-EnCoding:Chunked\n\n0\n\n", false},
		{"header name not a token", "POST / HTTP/1.1\r\nHost: t\r\nX@Y: v\r\nContent-Length: 2\r\n\r\nhi", false},
		{"repeated Transfer-Encoding", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", false},
		{"framing header announced as a trailer", "POST / HTTP/1.1\r\nHost: t\r\nTrailer: Content-Length\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", false},
		{"chunk size of 17 hex digits", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n00000000000000002\r\nhi\r\n0\r\n\r\n", false},
		{"plain GET", "GET /wsdl HTTP/1.1\r\nHost: t\r\n\r\n", true},
		{"value padded with SP and HTAB", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: \t2 \t\r\n\r\nhi", true},
		{"repeated equal Content-Length", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi", true},
	}
	// Inline, and answered by the responder of a read-ahead connection.
	srvs := map[int]*Server{}
	for _, ahead := range []int{0, 4} {
		srv, err := Listen("127.0.0.1:0", ServerOptions{Respond: true, Handler: echoHandler, ReadAhead: ahead})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[ahead] = srv
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for ahead, srv := range srvs {
				t.Run(fmt.Sprintf("readahead=%d", ahead), func(t *testing.T) {
					var req Request
					if err := ReadRequestInto(bufio.NewReader(strings.NewReader(c.raw)), &req); (err == nil) != c.ok {
						t.Fatalf("ReadRequestInto: err %v, want ok=%v", err, c.ok)
					}

					before := srv.Requests()
					conn, err := net.Dial("tcp", srv.Addr())
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					if _, err := conn.Write([]byte(c.raw)); err != nil {
						t.Fatal(err)
					}
					if c.ok {
						// The server holds an answered keep-alive connection open.
						conn.(*net.TCPConn).CloseWrite()
					}
					_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					br := bufio.NewReader(conn)
					var statuses []int
					for {
						resp, err := ReadResponse(br)
						if err != nil {
							if !errors.Is(err, errConnClosed) {
								t.Fatalf("after %v: %v, want a clean close", statuses, err)
							}
							break
						}
						statuses = append(statuses, resp.Status)
					}
					want, requests := []int{400}, int64(0)
					if c.ok {
						want, requests = []int{200}, 1
					}
					if !slices.Equal(statuses, want) || srv.Requests()-before != requests {
						t.Fatalf("statuses %v and %d requests counted, want %v and %d", statuses, srv.Requests()-before, want, requests)
					}
				})
			}
		})
	}
}

// TestRefusedRequestAnswerSurvivesItsBody sends a request the parser
// refuses (white space before a header colon) followed by the 1 MiB body
// its header announces, more than the server reads before refusing. The
// body write must succeed and the client must read the 400 and then EOF:
// a server that closed with the body unread would reset the connection
// under the client's write and its read.
func TestRefusedRequestAnswerSurvivesItsBody(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 1<<20)
	for _, ahead := range []int{0, 4} {
		t.Run(fmt.Sprintf("readahead=%d", ahead), func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0", ServerOptions{Respond: true, Handler: echoHandler, ReadAhead: ahead})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: t\r\nContent-Length : %d\r\n\r\n", len(body)); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(body); err != nil {
				t.Fatalf("body write: %v", err)
			}
			br := bufio.NewReader(conn)
			resp, err := ReadResponse(br)
			if err != nil || resp.Status != 400 {
				t.Fatalf("answer: %+v, %v; want a 400", resp, err)
			}
			if _, err := ReadResponse(br); !errors.Is(err, errConnClosed) {
				t.Fatalf("after the 400: %v, want a clean close", err)
			}
			// The client keeps its end open: the server stops discarding
			// at its deadline, and a drain waits no longer than that.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			if err := srv.Shutdown(ctx); err != nil || time.Since(start) > lingerTimeout+time.Second {
				t.Fatalf("shutdown after %v: %v", time.Since(start), err)
			}
		})
	}
}

// TestRefusalAnsweredInOrder pins where a refusal's 400 leaves a
// read-ahead connection: after every answer owed before it, written by
// the responder, while the reader has already stopped reading.
func TestRefusalAnsweredInOrder(t *testing.T) {
	gate := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond:   true,
		ReadAhead: 4,
		Handler: func(req *Request) ([]byte, error) {
			if string(req.Body) == "req-0" {
				<-gate
			}
			return []byte("echo:" + string(req.Body)), nil
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
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf("req-%d", i)
		fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}
	fmt.Fprint(conn, "POST / HTTP/1.1\r\nHost: t\r\nX-A: b\r\n Content-Length: 2\r\n\r\nhi")
	time.Sleep(20 * time.Millisecond)
	close(gate)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		resp, err := ReadResponse(br)
		if err != nil || string(resp.Body) != fmt.Sprintf("echo:req-%d", i) {
			t.Fatalf("response %d: %+v, %v", i, resp, err)
		}
	}
	resp, err := ReadResponse(br)
	if err != nil || resp.Status != 400 || resp.Headers["connection"] != "close" {
		t.Fatalf("refusal: %+v, %v", resp, err)
	}
	if _, err := ReadResponse(br); !errors.Is(err, errConnClosed) {
		t.Fatalf("after the refusal: %v, want a clean close", err)
	}
	if n := srv.metrics.Snapshot().ParseErrors; n != 1 {
		t.Fatalf("%d parse errors counted, want 1", n)
	}
}

// TestBadContentEncodingRejected pins that no content encoding is
// accepted, not even a well-formed gzip body.
func TestBadContentEncodingRejected(t *testing.T) {
	cases := map[string]string{
		"br":           "POST / HTTP/1.1\r\nContent-Encoding: br\r\nContent-Length: 3\r\n\r\nabc",
		"corrupt gzip": "POST / HTTP/1.1\r\nContent-Encoding: gzip\r\nContent-Length: 3\r\n\r\nabc",
		"valid gzip": "POST / HTTP/1.1\r\nContent-Encoding: gzip\r\nContent-Length: 28\r\n\r\n" +
			"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\x03\xb3\x49\xb4\x33\xb4\xd1\x4f\xb4\x03\x00\x68\x28\xdb\x0c\x08\x00\x00\x00",
	}
	for name, raw := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("%s: encoded body accepted", name)
		}
	}
}

func TestWriteAndReadResponse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, 200, "text/xml", []byte("<ok/>")); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "<ok/>" {
		t.Fatalf("resp: %+v body %q", resp, resp.Body)
	}
}

// TestResponseHeaderRules reads responses through the header parser the
// request path uses: a control byte anywhere in a value, at either end
// too, fails the read, as net/http's client fails it, and SP and HTAB
// around a value are trimmed.
func TestResponseHeaderRules(t *testing.T) {
	for _, v := range []string{"a\x00b", "\va", "a\f", "a\rb"} {
		raw := "HTTP/1.1 200 OK\r\nX: " + v + "\r\nContent-Length: 2\r\n\r\nok"
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("value %q: response read, want an error", v)
		}
	}
	raw := "HTTP/1.1 200 OK\r\nX: \t a b \t\r\nContent-Length: 2\r\n\r\nok"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Headers["x"]; got != "a b" || string(resp.Body) != "ok" {
		t.Fatalf("X = %q, body %q; want \"a b\", \"ok\"", got, resp.Body)
	}
}

func TestSenderSendFraming(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	s := NewSender(client, SenderOptions{Target: "/svc", Host: "unit"})

	var wg sync.WaitGroup
	wg.Add(1)
	var req *Request
	var rerr error
	go func() {
		defer wg.Done()
		req, rerr = ReadRequest(bufio.NewReader(server))
	}()
	if err := s.Send(net.Buffers{[]byte("<a>"), []byte("1"), []byte("</a>")}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if req.Target != "/svc" || req.Headers["host"] != "unit" {
		t.Fatalf("framing: %+v", req)
	}
	if string(req.Body) != "<a>1</a>" {
		t.Fatalf("body: %q", req.Body)
	}
	if req.Headers["content-length"] != "8" {
		t.Fatalf("content-length: %q", req.Headers["content-length"])
	}
}

// TestSenderHTTP11Head pins the one framing: every request is HTTP/1.1,
// persistent by default, so the head carries no Connection header.
func TestSenderHTTP11Head(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	s := NewSender(client, SenderOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	var req *Request
	go func() {
		defer wg.Done()
		req, _ = ReadRequest(bufio.NewReader(server))
	}()
	if err := s.Send(net.Buffers{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if req.Proto != "HTTP/1.1" {
		t.Fatalf("proto: %q", req.Proto)
	}
	if v, ok := req.Headers["connection"]; ok {
		t.Fatalf("connection header %q on a persistent HTTP/1.1 request", v)
	}
}

func TestSenderStreaming(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	s := NewSender(client, SenderOptions{})
	var wg sync.WaitGroup
	wg.Add(1)
	var req *Request
	var rerr error
	go func() {
		defer wg.Done()
		req, rerr = ReadRequest(bufio.NewReader(server))
	}()
	if err := s.BeginStream(); err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"<arr>", "<v>1</v>", "<v>2</v>", "</arr>"} {
		if err := s.StreamChunk([]byte(part)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StreamChunk(nil); err != nil { // empty chunk must be a no-op
		t.Fatal(err)
	}
	if err := s.EndStream(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(req.Body) != "<arr><v>1</v><v>2</v></arr>" {
		t.Fatalf("streamed body: %q", req.Body)
	}
}

func TestSenderStreamStateErrors(t *testing.T) {
	client, _ := net.Pipe()
	s := NewSender(client, SenderOptions{})
	if err := s.StreamChunk([]byte("x")); err == nil {
		t.Fatal("StreamChunk outside stream accepted")
	}
	if err := s.EndStream(); err == nil {
		t.Fatal("EndStream outside stream accepted")
	}
	if err := s.BeginStream(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginStream(); err == nil {
		t.Fatal("BeginStream during an active stream accepted")
	}
}

func TestDiscardServerEndToEnd(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sender, err := Dial(srv.Addr(), SenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	for i := 0; i < 10; i++ {
		if err := sender.Send(net.Buffers{[]byte("<m>payload</m>")}); err != nil {
			t.Fatal(err)
		}
	}
	// The discard server never responds; wait for it to drain.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Requests() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("server received %d/10 requests", srv.Requests())
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Bytes() != 10*int64(len("<m>payload</m>")) {
		t.Fatalf("server bytes = %d", srv.Bytes())
	}
}

func TestServerWithHandlerAndResponse(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond: true,
		Handler: func(req *Request) ([]byte, error) {
			return append([]byte("echo:"), req.Body...), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The sender writes the request and leaves the response on the wire,
	// where the test reads it itself.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := NewSender(conn, SenderOptions{}).Send(net.Buffers{[]byte("ping")}); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "echo:ping" {
		t.Fatalf("resp %d %q", resp.Status, resp.Body)
	}
}

func TestServerRespondingDiscardAcks(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sender, err := Dial(srv.Addr(), SenderOptions{ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	for i := 0; i < 5; i++ {
		if err := sender.Send(net.Buffers{[]byte("msg")}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Requests() != 5 {
		t.Fatalf("requests = %d", srv.Requests())
	}
}

func TestDiscardSinkCounts(t *testing.T) {
	d := NewDiscardSink()
	d.Send(net.Buffers{[]byte("abc"), []byte("de")})
	d.BeginStream()
	d.StreamChunk([]byte("xyz"))
	d.EndStream()
	if d.Bytes() != 8 || d.Sends() != 2 {
		t.Fatalf("bytes=%d sends=%d", d.Bytes(), d.Sends())
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	w := WriterSink{W: &buf}
	w.Send(net.Buffers{[]byte("a"), []byte("b")})
	w.BeginStream()
	w.StreamChunk([]byte("c"))
	w.EndStream()
	if buf.String() != "abc" {
		t.Fatalf("writer sink got %q", buf.String())
	}
}

// ReadResponse parses one HTTP response from br.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	resp := &Response{}
	if err := ReadResponseInto(br, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// TestSilentServerStaysSilentOnRefusal: a server that answers nothing
// (the dummy server without Respond) closes on a refused request
// without a 400.
func TestSilentServerStaysSilentOnRefusal(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST / HTTP/1.1\r\nHost: t\r\nContent-Length : 2\r\n\r\nhi")
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, err := io.ReadAll(conn); err != nil || len(b) != 0 {
		t.Fatalf("read %q, %v; want a close with nothing written", b, err)
	}
}
