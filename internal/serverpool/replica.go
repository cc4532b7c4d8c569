package serverpool

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"bsoap/internal/core"
	"bsoap/internal/wire"
)

// replica is one client's private decode/encode state: one store of
// request bodies, each with the decode template of its own bytes — the
// client's patch bases for requests that name their template, and per
// registered operation and body length the last body of requests that do
// not; a differential response stub; and per operation a handler
// instance with its response template (handlers reuse response messages,
// so instances cannot be shared). A replica is keyed by its connection,
// which serves one request at a time, so the mutex is all but
// uncontended: it serializes the request with ResponseStats' reads, with
// the registry releasing an evicted replica's arenas, and with Handle
// callers that name one connection id from two goroutines.
type replica struct {
	mu sync.Mutex
	// ops maps operation to this replica's handler instance and response
	// template; only registered operations get one, so rt.ops bounds it.
	ops map[string]*replicaOp
	// respBytes sums the footprints charged for the ops' templates.
	respBytes int64
	// sink is where stub sends: handle points it at the request's
	// recycled response storage for the length of one call.
	sink respSink
	// stub is the response stub, serializing through the ops' templates;
	// it and they are guarded by mu.
	stub *core.Stub
	// size caches the replica's memory footprint for the registry's
	// budget accounting: stored by release while the replica lock is
	// held, read lock-free by SizeBytes under registry locks.
	size atomic.Int64
	// bases holds every request body this replica retains, with its
	// decode template; guarded by mu.
	bases *baseKeeper
}

// replicaOp is one operation on a replica: its handler instance, the one
// response template held for it (a response of another shape replaces
// it), and that template's footprint as last charged to respBytes.
type replicaOp struct {
	h   Handler
	tpl *core.Template
	fp  int64
}

// respond serializes resp through op's template, re-charging the
// template's footprint when the call built, grew, split, replaced or
// dropped it — the pool's rule for its engines. Caller holds r.mu.
func (r *replica) respond(op *replicaOp, resp *wire.Message) (core.CallInfo, error) {
	before := op.tpl
	ci, err := r.stub.CallHeld(&op.tpl, resp)
	if op.tpl != before || ci.Grows+ci.Splits > 0 {
		fp := int64(0)
		if op.tpl != nil {
			fp = int64(op.tpl.Footprint())
		}
		r.respBytes += fp - op.fp
		op.fp = fp
	}
	return ci, err
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

// ReleaseArenas returns the response templates' arenas to the chunk
// pool (replica.Entry). The registry calls it once the evicted replica's
// last in-flight request has finished; taking the replica lock
// serializes against that request's final response bytes.
func (r *replica) ReleaseArenas() {
	r.mu.Lock()
	for _, op := range r.ops {
		if op.tpl != nil {
			op.tpl.Release()
			op.tpl = nil
		}
	}
	r.mu.Unlock()
}
