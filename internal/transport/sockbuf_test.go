//go:build unix

package transport

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// sockBufs reads a TCP connection's send and receive buffer sizes as the
// kernel reports them (Linux reports twice what was set: the doubling
// covers its bookkeeping).
func sockBufs(t *testing.T, c net.Conn) (snd, rcv int) {
	t.Helper()
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr, rerr error
	if err := raw.Control(func(fd uintptr) {
		snd, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
		rcv, rerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || serr != nil || rerr != nil {
		t.Fatalf("getsockopt: %v, %v, %v", err, serr, rerr)
	}
	return snd, rcv
}

// acceptedConn sends one request over s and returns the server's end of
// the connection once srv has accepted it and set it up.
func acceptedConn(t *testing.T, srv *Server, s *Sender) net.Conn {
	t.Helper()
	if err := s.Send(net.Buffers{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		for c := range srv.conns {
			srv.mu.Unlock()
			return c
		}
		srv.mu.Unlock()
	}
	t.Fatal("server tracks no connection")
	return nil
}

// TestSocketBuffersFollowDepth reads the kernel's buffer sizes off
// loopback sockets: a serial connection keeps the paper's 32 KiB, a
// depth-8 sender's send buffer (after a Redial too) and a read-ahead-8
// handler connection's receive buffer hold eight requests' worth.
func TestSocketBuffersFollowDepth(t *testing.T) {
	// What the kernel reports for the paper's setting, which need not be
	// the number set.
	ref, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rc, err := net.Dial("tcp", ref.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_ = rc.(*net.TCPConn).SetWriteBuffer(sockBufPerRequest)
	_ = rc.(*net.TCPConn).SetReadBuffer(sockBufPerRequest)
	paperSnd, paperRcv := sockBufs(t, rc)

	empty := func(*Request) ([]byte, error) { return nil, nil }
	for _, c := range []struct {
		name       string
		opts       ServerOptions
		rcvAtLeast int // 0: the paper's setting exactly
	}{
		{"discard", ServerOptions{ReadAhead: 8}, 0},
		{"handler", ServerOptions{Handler: empty, Respond: true}, 0},
		{"handler/readahead8", ServerOptions{Handler: empty, Respond: true, ReadAhead: 8}, 8 * sockBufPerRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := Listen("127.0.0.1:0", c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			s, err := Dial(srv.Addr(), SenderOptions{ExpectResponse: c.opts.Respond})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if snd, rcv := sockBufs(t, s.conn); snd != paperSnd || rcv != paperRcv {
				t.Fatalf("dialed sender: send %d, receive %d; want the 32 KiB setting's %d, %d", snd, rcv, paperSnd, paperRcv)
			}

			_, rcv := sockBufs(t, acceptedConn(t, srv, s))
			if c.rcvAtLeast == 0 && rcv != paperRcv {
				t.Fatalf("accepted connection: receive %d, want the 32 KiB setting's %d", rcv, paperRcv)
			}
			if rcv < c.rcvAtLeast {
				t.Fatalf("accepted connection: receive %d, want at least %d", rcv, c.rcvAtLeast)
			}

			pl, err := Dial(srv.Addr(), SenderOptions{Depth: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			if snd, _ := sockBufs(t, pl.conn); snd < 8*sockBufPerRequest {
				t.Fatalf("depth-8 sender: send %d, want at least %d", snd, 8*sockBufPerRequest)
			}
			if err := pl.Redial(); err != nil {
				t.Fatal(err)
			}
			if snd, _ := sockBufs(t, pl.conn); snd < 8*sockBufPerRequest {
				t.Fatalf("depth-8 sender after Redial: send %d, want at least %d", snd, 8*sockBufPerRequest)
			}
		})
	}
}
