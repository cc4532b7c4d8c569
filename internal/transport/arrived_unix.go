//go:build unix && !aix

package transport

import (
	"net"
	"syscall"
)

// arrived reports whether bytes wait unread in conn's socket, without
// blocking and without consuming them: a one-byte MSG_PEEK|MSG_DONTWAIT
// receive. A conn that is not a bare socket (a wrapper, a pipe) reads
// false.
func arrived(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	// Control, not Read: the probe must work under a poisoned read
	// deadline, and must never wait.
	found := false
	err = rc.Control(func(fd uintptr) {
		var b [1]byte
		n, _, rerr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		found = rerr == nil && n > 0
	})
	return err == nil && found
}
