package serverpool

import (
	"fmt"

	reg "bsoap/internal/replica"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// maxDeltaBases bounds the patch bases one keeper holds, LRU-evicted by
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

// baseKeeper is the server half of the delta protocol for one
// connection's worth of state: the patch bases by template id, their
// aggregate capacity for the owner's footprint, and the reused
// patch-parse scratch. Every replica owns one, and so does the
// conformance Recorder per connection — the protocol has this one
// implementation. Not safe for concurrent use; the owner's lock guards
// it. The zero value is ready.
type baseKeeper struct {
	bases *reg.LRU[uint64, *deltaBase] // nil until the first sync
	bytes int64
	frame wire.DeltaFrame
	// onDrop, when set, hears of every base given up — evicted at the
	// cap, or poisoned by a patch that failed its checksum.
	onDrop func()
}

func (k *baseKeeper) drop(b *deltaBase) {
	k.bytes -= int64(cap(b.body))
	if k.onDrop != nil {
		k.onDrop()
	}
}

// sync stores a sync-annotated full body as the patch base for its
// template and asks the transport to acknowledge the store (the ack is
// what flips the client delta-capable).
func (k *baseKeeper) sync(req *transport.Request) {
	if k.bases == nil {
		k.bases = reg.NewLRU[uint64, *deltaBase]()
	}
	base, ok := k.bases.Get(req.DeltaTID)
	if !ok {
		if k.bases.Len() >= maxDeltaBases {
			if _, old, evicted := k.bases.RemoveTail(); evicted {
				k.drop(old)
			}
		}
		base = &deltaBase{}
		k.bases.PushFront(req.DeltaTID, base)
	}
	k.bytes -= int64(cap(base.body))
	base.epoch = req.DeltaEpoch
	base.body = append(base.body[:0], req.Body...)
	k.bytes += int64(cap(base.body))
	req.DeltaAck = true
	req.DeltaAckTID = req.DeltaTID
	req.DeltaAckEpoch = req.DeltaEpoch
}

// apply reconstructs a request body from a patch frame and the held
// base; the result is the base itself, valid until the keeper's next
// call. Every failure — unknown template, epoch skew, malformed frame,
// checksum mismatch — returns an error wrapping wire.ErrDeltaResync,
// which the transport answers as 409/resync; the client then resends in
// full and resynchronizes. A checksum failure additionally drops the
// base: its bytes can no longer be trusted as anyone's patch target.
func (k *baseKeeper) apply(req *transport.Request) ([]byte, error) {
	f := &k.frame
	if err := wire.ParseDeltaFrame(f, req.Body); err != nil {
		return nil, err
	}
	var base *deltaBase
	if k.bases != nil {
		base, _ = k.bases.Get(f.TID)
	}
	if base == nil {
		return nil, fmt.Errorf("serverpool: no base for template %d: %w", f.TID, wire.ErrDeltaResync)
	}
	if base.epoch != f.BaseEpoch {
		return nil, fmt.Errorf("serverpool: template %d at epoch %d, patch expects %d: %w",
			f.TID, base.epoch, f.BaseEpoch, wire.ErrDeltaResync)
	}
	if err := f.Apply(base.body); err != nil {
		// The regions may have been copied in before the checksum failed:
		// the base is poisoned either way, so drop it rather than letting
		// a later patch build on unverified bytes.
		k.bases.Remove(f.TID)
		k.drop(base)
		return nil, err
	}
	base.epoch = f.NewEpoch
	return base.body, nil
}
