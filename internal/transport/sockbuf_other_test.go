//go:build !unix

package transport

import "testing"

func TestSocketBuffersFollowDepth(t *testing.T) {
	t.Skip("socket buffer sizes cannot be read on this platform: syscall has no GetsockoptInt")
}
