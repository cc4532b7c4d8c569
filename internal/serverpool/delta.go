package serverpool

import (
	"fmt"
	"time"

	reg "bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// maxDeltaBases bounds the patch bases one replica holds, LRU-evicted by
// template id. A client whose working set exceeds the cap just resends
// full bodies for the evicted templates — the same lossless degradation
// as every other delta failure.
const maxDeltaBases = 32

// deltaBase is one held patch base: the template body as last
// synchronized by the client, at the epoch the client labeled it with.
// Patch frames rewrite body in place; the client's CRC over the whole
// reconstructed body is what proves the rewrite landed on the right
// bytes.
type deltaBase struct {
	epoch uint64
	body  []byte
}

// storeDeltaBase records a sync-annotated full body as the patch base
// for its template, and asks the transport to acknowledge the store (the
// ack is what flips the client delta-capable). Caller holds r.mu.
func (rt *Runtime) storeDeltaBase(r *replica, req *transport.Request) {
	if r.bases == nil {
		r.bases = reg.NewLRU[uint64, *deltaBase]()
	}
	base, ok := r.bases.Get(req.DeltaTID)
	if !ok {
		if r.bases.Len() >= maxDeltaBases {
			if _, old, evicted := r.bases.RemoveTail(); evicted {
				r.deltaBytes -= int64(cap(old.body))
				rt.metrics.RecordDeltaBaseEviction()
			}
		}
		base = &deltaBase{}
		r.bases.PushFront(req.DeltaTID, base)
	}
	r.deltaBytes -= int64(cap(base.body))
	base.epoch = req.DeltaEpoch
	base.body = append(base.body[:0], req.Body...)
	r.deltaBytes += int64(cap(base.body))
	rt.deltaSyncs.Add(1)
	rt.metrics.RecordDeltaSync(len(req.Body))
	req.DeltaAck = true
	req.DeltaAckTID = req.DeltaTID
	req.DeltaAckEpoch = req.DeltaEpoch
}

// applyDelta reconstructs a request body from a patch frame and the held
// base. Every failure — unknown template, epoch skew, malformed frame,
// checksum mismatch — returns an error wrapping wire.ErrDeltaResync,
// which the transport answers as 409/resync; the client then resends in
// full and resynchronizes. A checksum failure additionally drops the
// base: its bytes can no longer be trusted as anyone's patch target.
// Caller holds r.mu.
func (rt *Runtime) applyDelta(r *replica, req *transport.Request) ([]byte, error) {
	start := time.Now()
	if err := wire.ParseDeltaFrame(&r.frame, req.Body); err != nil {
		rt.deltaResyncs.Add(1)
		return nil, err
	}
	f := &r.frame
	var base *deltaBase
	if r.bases != nil {
		base, _ = r.bases.Get(f.TID)
	}
	if base == nil {
		rt.deltaResyncs.Add(1)
		return nil, fmt.Errorf("serverpool: no base for template %d: %w", f.TID, wire.ErrDeltaResync)
	}
	if base.epoch != f.BaseEpoch {
		rt.deltaResyncs.Add(1)
		return nil, fmt.Errorf("serverpool: template %d at epoch %d, patch expects %d: %w",
			f.TID, base.epoch, f.BaseEpoch, wire.ErrDeltaResync)
	}
	if err := f.Apply(base.body); err != nil {
		// The regions may have been copied in before the checksum failed:
		// the base is poisoned either way, so drop it rather than letting
		// a later patch build on unverified bytes.
		if _, ok := r.bases.Remove(f.TID); ok {
			r.deltaBytes -= int64(cap(base.body))
			rt.metrics.RecordDeltaBaseEviction()
		}
		rt.deltaResyncs.Add(1)
		return nil, err
	}
	base.epoch = f.NewEpoch
	rt.deltaApplied.Add(1)
	rt.metrics.RecordDeltaApply(len(req.Body), len(base.body))
	ns := time.Since(start).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageDeltaApply, ns, req.TraceSpan)
	return base.body, nil
}
