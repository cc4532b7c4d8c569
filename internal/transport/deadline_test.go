package transport

import (
	"net"
	"sync"
	"testing"
	"time"
)

// deadlineConn counts the deadlines set on a connection and records how
// far ahead of the moment each was set it lies.
type deadlineConn struct {
	net.Conn
	mu            sync.Mutex
	reads, writes []time.Duration
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.reads = append(c.reads, time.Until(t))
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writes = append(c.writes, time.Until(t))
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *deadlineConn) counts() (reads, writes []time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.reads...), append([]time.Duration(nil), c.writes...)
}

// deadlineListener hands out deadlineConns.
type deadlineListener struct {
	net.Listener
	conns chan *deadlineConn
}

func (l deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	dc := &deadlineConn{Conn: c}
	l.conns <- dc
	return dc, nil
}

// TestDeadlinesArmedOnlyWhenDue runs 1 000 warm calls with 5 s socket
// timeouts. The sender arms each deadline at most twice — once at the
// first call and at most once more, should the calls outlast
// timeout/16 — and each one it arms lies between the timeout and
// timeout + timeout/16 ahead. The server, with no RequestTimeout, arms
// no read deadline at all.
func TestDeadlinesArmedOnlyWhenDue(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *deadlineConn, 1)
	srv := Serve(deadlineListener{Listener: ln, conns: accepted}, ServerOptions{Respond: true, Handler: echoHandler})
	defer srv.Close()

	const timeout = 5 * time.Second
	var client *deadlineConn
	s, err := Dial(srv.Addr(), SenderOptions{ExpectResponse: true, ReadTimeout: timeout, WriteTimeout: timeout,
		Dialer: func(network, addr string) (net.Conn, error) {
			c, err := DefaultDialer(network, addr)
			client = &deadlineConn{Conn: c}
			return client, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := net.Buffers{[]byte("<m/>")}
	for i := 0; i < 1000; i++ {
		if err := s.Send(body); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	reads, writes := client.counts()
	for side, set := range map[string][]time.Duration{"read": reads, "write": writes} {
		if len(set) < 1 || len(set) > 2 {
			t.Errorf("%s deadline armed %d times over 1 000 calls, want 1 or 2", side, len(set))
		}
		for _, ahead := range set {
			// time.Until runs just after the deadline was computed, so
			// it may read a little under what was armed.
			if ahead < timeout-timeout/64 || ahead > timeout+timeout/16 {
				t.Errorf("%s deadline armed %v ahead, want [%v, %v]", side, ahead, timeout, timeout+timeout/16)
			}
		}
	}
	if sreads, _ := (<-accepted).counts(); len(sreads) != 0 {
		t.Errorf("server without RequestTimeout set %d read deadlines, want 0", len(sreads))
	}
}
