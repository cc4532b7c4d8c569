package serverpool

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
)

// replica is one client's private decode/encode state: the client's
// patch bases, each the decode template of its own bytes, for requests
// that name their template; a differential deserializer, one key per
// registered operation, whose templates track the shapes of requests that do not; a differential
// response stub; and per-replica handler instances (handlers reuse
// response messages, so instances cannot be shared). A replica is keyed
// by its connection, which serves one request at a time, so the mutex is
// all but uncontended: it serializes the request with ResponseStats'
// reads, with the registry releasing an evicted replica's arenas, and
// with Handle callers that name one connection id from two goroutines.
type replica struct {
	mu     sync.Mutex
	differ *diffdeser.Deserializer
	// handlers maps operation to this replica's handler instance; only
	// registered operations get one, so rt.ops bounds it.
	handlers map[string]Handler
	// sink is where stub sends: handle points it at the request's
	// recycled response storage for the length of one call.
	sink respSink
	// stub is the response stub; it and its templates are guarded by mu.
	stub *core.Stub
	// size caches the replica's memory footprint for the registry's
	// budget accounting: stored by release while the replica lock is
	// held, read lock-free by SizeBytes under registry locks.
	size atomic.Int64
	// bases holds this replica's differential-transmission patch bases
	// and, with differential deserialization on, their templates; guarded
	// by mu.
	bases baseKeeper
}

// respSink is a replica's response sink: it appends the stub's gather
// vector to buf.
type respSink struct{ buf []byte }

// Send implements core.Sink.
func (s *respSink) Send(bufs net.Buffers) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	s.buf = slices.Grow(s.buf[:0], n)
	for _, b := range bufs {
		s.buf = append(s.buf, b...)
	}
	return nil
}

// SizeBytes reports the cached footprint (replica.Entry).
func (r *replica) SizeBytes() int { return int(r.size.Load()) }

// ReleaseArenas returns the response stub's template arenas to the
// chunk pool (replica.Entry). The registry calls it once the evicted
// replica's last in-flight request has finished; taking the replica
// lock serializes against that request's final response bytes.
func (r *replica) ReleaseArenas() {
	r.mu.Lock()
	r.stub.Store().ReleaseAll()
	r.mu.Unlock()
}
