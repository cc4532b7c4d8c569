package bsoap_test

import (
	"bufio"
	"bytes"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"bsoap/internal/harness"
	"bsoap/internal/pool"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapenv"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// readLogConn records every byte its reads return.
type readLogConn struct {
	net.Conn
	mu  sync.Mutex
	buf []byte
}

func (c *readLogConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.buf = append(c.buf, b[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *readLogConn) since(off int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf[off:]...)
}

// TestWarmDeltaResponseIsLean runs warm delta calls on loopback through
// a dialer that logs what the client reads, and holds one call's reads
// to exactly one response: its head, and the body soapenv renders for
// the handler's reply — no XML declaration, no SOAP-ENC declaration (the
// reply has no array) and no white space between elements. Every byte
// beyond those is link time on every call of a link-bound workload.
func TestWarmDeltaResponseIsLean(t *testing.T) {
	_, srv := harness.BenchRuntime(t, serverpool.Options{Delta: true}, transport.ServerOptions{})
	var conns atomic.Int32
	var conn *readLogConn
	p := harness.Pool(t, pool.Options{Addr: srv.Addr(), Size: 1, Delta: true,
		Sender: transport.SenderOptions{Dialer: func(network, addr string) (net.Conn, error) {
			c, err := transport.DefaultDialer(network, addr)
			if err != nil {
				return nil, err
			}
			conns.Add(1)
			conn = &readLogConn{Conn: c}
			return conn, nil
		}}})

	d := workload.NewDoubles(100, workload.FillIntermediate)
	for i := 0; i < 3; i++ {
		if _, err := p.Call(d.Msg); err != nil {
			t.Fatal(err)
		}
	}
	d.Msg.SetLeafDouble(7, 0.5)
	sends, off := p.Stats().DeltaSends, len(conn.since(0))
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatal(err)
	}
	if p.Stats().DeltaSends != sends+1 || conns.Load() != 1 {
		t.Fatalf("the measured call was not a patch frame on the one connection (delta sends %d → %d, %d dials)",
			sends, p.Stats().DeltaSends, conns.Load())
	}
	got := conn.since(off)

	reply := wire.NewMessage(workload.Namespace, "sendDoublesResponse")
	reply.AddInt("n", int32(d.Msg.NumLeaves()))
	body := new(soapenv.Compiler).AppendMessage(nil, reply, 0)
	for _, extra := range []string{"<?xml", "SOAP-ENC", "\n"} {
		if bytes.Contains(body, []byte(extra)) {
			t.Fatalf("the rendered reply holds %q: %s", extra, body)
		}
	}
	head, rest, ok := bytes.Cut(got, []byte("\r\n\r\n"))
	if !ok || !bytes.Equal(rest, body) {
		t.Fatalf("the call read %d bytes:\n%s\nwant a head and then the %d-byte reply:\n%s", len(got), got, len(body), body)
	}
	var resp transport.Response
	if err := transport.ReadResponseInto(bufio.NewReader(bytes.NewReader(got)), &resp); err != nil ||
		resp.Status != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("the read bytes do not parse as one 200 carrying the reply (%v): %q", err, got)
	}
	if want := "HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: " + strconv.Itoa(len(body)); string(head) != want {
		t.Fatalf("response head %q, want %q", head, want)
	}
	t.Logf("warm delta response: %d B head + %d B body", len(head)+4, len(body))
}
