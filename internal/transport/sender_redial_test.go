package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
)

// oneShotServer accepts connections, serves exactly one request per
// connection (202), then closes it — so a Sender's second Send on the
// same connection fails and must Redial.
func oneShotServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, err := ReadRequest(bufio.NewReader(conn)); err != nil {
					return
				}
				_ = WriteResponse(conn, 202, "", nil)
			}(conn)
		}
	}()
	return ln
}

func TestSenderRedial(t *testing.T) {
	ln := oneShotServer(t)
	defer ln.Close()

	s, err := Dial(ln.Addr().String(), SenderOptions{ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	body := net.Buffers{[]byte("<env>1</env>")}
	if err := s.Send(body); err != nil {
		t.Fatalf("first send: %v", err)
	}

	// The server hung up after the first request: keep sending until the
	// failure surfaces (the first write after close can land in kernel
	// buffers), then recover with Redial.
	var sendErr error
	for i := 0; i < 10 && sendErr == nil; i++ {
		sendErr = s.Send(body)
	}
	if sendErr == nil {
		t.Fatal("send on closed connection never failed")
	}

	if err := s.Redial(); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if err := s.Send(body); err != nil {
		t.Fatalf("send after redial: %v", err)
	}
}

func TestSenderCloseIdempotent(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	s := NewSender(c1, SenderOptions{})
	if err := s.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	// A raw double net.Conn close errors; the Sender must absorb it.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestRedialRequiresDial(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	s := NewSender(c1, SenderOptions{})
	if err := s.Redial(); !errors.Is(err, errNotDialed) {
		t.Fatalf("Redial on wrapped conn: got %v, want errNotDialed", err)
	}
}

// TestSenderConcurrentClose exercises Close from many goroutines under
// the race detector: exactly one must reach the connection, the rest are
// no-ops.
func TestSenderConcurrentClose(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	s := NewSender(c1, SenderOptions{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
}
