//go:build !unix || aix

package transport

import "net"

// arrived always reads false where package syscall has no non-blocking
// peek: a draining connection then serves only what its read buffer
// already holds.
func arrived(net.Conn) bool { return false }
