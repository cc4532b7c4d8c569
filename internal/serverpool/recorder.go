package serverpool

import (
	"sync"

	reg "bsoap/internal/replica"
	"bsoap/internal/transport"
)

// maxRecorderKeepers bounds the connections a Recorder holds patch bases
// for, LRU by connection id: the runtime's default replica count. A
// connection whose keeper was dropped draws a resync on its next patch
// and resends in full, so the bound is lossless.
const maxRecorderKeepers = 256

// Recorder is a conformance-test endpoint: it keeps a verbatim copy of
// every request body the transport accepted, so a test can later prove
// that what the server received is byte-equivalent to a from-scratch
// serialization of the client's values. It speaks the differential
// transmission protocol through the keeper every replica uses — one per
// connection, scoped the way the client scopes its sync state, for the
// maxRecorderKeepers connections most recently active — so the
// recorded body is always the full reconstructed body, delta conformance
// runs use the same byte oracle as full-body runs, and what they test is
// the apply that ships. Its keepers decode nothing (no lookup): a
// recorder has no schemas, and the byte oracle needs only the bytes.
// It counts patches applied, bases stored and dropped and patches
// refused into the server's metrics registry, as the runtime does.
// Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	bodies  [][]byte
	limit   int
	dropped int64
	metrics *transport.ServerMetrics

	keepers *reg.LRU[uint64, *baseKeeper] // by connection id
}

// NewRecorder builds a recorder retaining at most limit bodies (<= 0
// means unbounded). Bodies beyond the limit are counted as dropped
// rather than silently lost. m receives the delta counters; nil gets a
// private registry. Pass the transport.Server's registry to export them
// on its /metrics page.
func NewRecorder(limit int, m *transport.ServerMetrics) *Recorder {
	if m == nil {
		m = transport.NewServerMetrics()
	}
	return &Recorder{limit: limit, metrics: m, keepers: reg.NewLRU[uint64, *baseKeeper]()}
}

// HTTPHandler adapts the recorder to the transport server. The handler
// returns no response body; run the transport with Respond: true so
// clients that expect a response get an empty 200 (carrying the delta
// ack for sync-annotated requests; the transport turns a returned
// wire.ErrDeltaResync into the 409 resync the protocol requires).
func (r *Recorder) HTTPHandler() transport.Handler {
	return func(req *transport.Request) ([]byte, error) {
		body := req.Body
		r.mu.Lock()
		defer r.mu.Unlock()
		if req.DeltaMode != transport.DeltaNone {
			k, held := r.keepers.Get(req.ConnID)
			if !held {
				// A sync makes a connection's keeper. A patch on a
				// connection without one finds no base and draws a
				// resync, evicting nobody.
				k = &baseKeeper{onDrop: r.metrics.RecordDeltaBaseEviction}
				if req.DeltaMode == transport.DeltaSync {
					if r.keepers.Len() >= maxRecorderKeepers {
						// A sync made it, so it holds bases to give up.
						_, old, _ := r.keepers.RemoveTail()
						for tid, ok := old.bases.Tail(); ok; tid, ok = old.bases.Tail() {
							old.drop(tid)
						}
					}
					r.keepers.PushFront(req.ConnID, k)
				}
			}
			if req.DeltaMode == transport.DeltaSync {
				k.sync(req) // a keeper that does not decode cannot refuse
				r.metrics.RecordDeltaSync(len(req.Body))
			} else {
				b, err := k.apply(req)
				if err != nil {
					r.metrics.RecordDeltaResync()
					return nil, err
				}
				r.metrics.RecordDeltaApply(len(req.Body), len(b.body))
				body = b.body
			}
		}
		if r.limit > 0 && len(r.bodies) >= r.limit {
			r.dropped++
		} else {
			r.bodies = append(r.bodies, append([]byte(nil), body...))
		}
		return nil, nil
	}
}

// Bodies returns a snapshot of the recorded request bodies, in arrival
// order.
func (r *Recorder) Bodies() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]byte, len(r.bodies))
	copy(out, r.bodies)
	return out
}

// Count reports recorded bodies.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.bodies)
}

// Dropped reports bodies discarded by the retention limit.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ForgetBases drops every held patch base, simulating server-side state
// loss (eviction, restart): the next patch frame of any template is
// refused with a resync and the client must recover losslessly.
func (r *Recorder) ForgetBases() {
	r.mu.Lock()
	r.keepers = reg.NewLRU[uint64, *baseKeeper]()
	r.mu.Unlock()
}
