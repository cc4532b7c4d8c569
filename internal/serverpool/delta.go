package serverpool

import (
	"fmt"

	"bsoap/internal/diffdeser"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// maxDeltaBases bounds the patch bases one keeper holds, LRU-evicted by
// template id. A client whose working set exceeds the cap just resends
// full bodies for the evicted templates — the same lossless degradation
// as every other delta failure.
const maxDeltaBases = 32

// deltaBase is one held patch base: the template body as last
// synchronized by the client, at the epoch the client labeled it with,
// and — on a keeper that decodes, while the base is among its operation's
// most recently used — the decode template of those very bytes. Patch
// frames rewrite body in place; the client's CRC over the whole
// reconstructed body is what proves the rewrite landed on the right
// bytes.
type deltaBase struct {
	epoch uint64
	body  []byte
	tpl   diffdeser.Template
	op    string // the operation tpl decoded; "" while tpl holds nothing
	cost  int64  // what the base adds to the keeper's bytes
}

// baseKeeper is the server half of the delta protocol for one
// connection's worth of state: the patch bases by template id, their
// aggregate footprint for the owner's budget, and the reused patch-parse
// scratch. Every replica owns one, and so does the conformance Recorder
// per connection — the protocol has this one implementation. A replica's
// keeper also decodes (lookup is set): a base carries the diffdeser
// template of its own bytes, so a request that names its template is
// decoded against the one copy of the body the server holds. Decode
// state is bounded as the length walk bounds it: per operation, only the
// reg.TemplatesPerOp most recently decoded bases keep their
// templates, and the rest hold bare bytes until their next sync or patch
// parses them again. Not safe for concurrent use; the owner's lock guards
// it. The zero value is a keeper that does not decode.
type baseKeeper struct {
	bases  *reg.LRU[uint64, *deltaBase] // nil until the first sync
	bytes  int64
	lookup soapdec.Lookup
	frame  wire.DeltaFrame
	// old holds the bytes the last applied frame overwrote, region after
	// region: O(dirty), and what the decode compares the regions with.
	old []byte
	// onDrop, when set, hears of every base given up — evicted at the
	// cap, or dropped because its body would not decode.
	onDrop func()
}

// account re-charges b's footprint: its body's capacity and, while it
// holds one, its template's own estimate.
func (k *baseKeeper) account(b *deltaBase) {
	c := int64(cap(b.body))
	if b.op != "" {
		c += int64(b.tpl.SizeBytes())
	}
	k.bytes += c - b.cost
	b.cost = c
}

// decoded records that b's template was just rebuilt by a full parse of
// its bytes into msg, and gives up the templates of the same operation's
// bases beyond the newest reg.TemplatesPerOp. b is the most
// recently used base, so it keeps its own.
func (k *baseKeeper) decoded(b *deltaBase, msg *wire.Message) {
	b.op = msg.Operation()
	n := 0
	k.bases.FromFront(func(_ uint64, o *deltaBase) bool {
		if o.op != b.op {
			return true
		}
		if n++; n > reg.TemplatesPerOp {
			o.tpl, o.op = diffdeser.Template{}, ""
			k.account(o)
		}
		return true
	})
}

// drop gives up the base held for tid: its bytes and its decode state go
// together.
func (k *baseKeeper) drop(tid uint64) {
	if b, ok := k.bases.Remove(tid); ok {
		k.bytes -= b.cost
		if k.onDrop != nil {
			k.onDrop()
		}
	}
}

// sync makes a sync-annotated full body the patch base for its template
// and asks the transport to acknowledge it (the ack is what flips the
// client delta-capable). A decoding keeper decodes the body into the
// base's template first — against the held bytes when the base still has
// its template and the length holds, else in full — and retains and
// acknowledges the body only if it
// decodes: one that does not leaves no base for its template id. The
// message is the template's (nil on a keeper that does not decode).
func (k *baseKeeper) sync(req *transport.Request) (*wire.Message, diffdeser.Info, error) {
	if k.bases == nil {
		k.bases = reg.NewLRU[uint64, *deltaBase]()
	}
	b, held := k.bases.Get(req.DeltaTID)
	if !held {
		b = &deltaBase{}
	}
	var msg *wire.Message
	var info diffdeser.Info
	if k.lookup != nil {
		whole := [1]wire.DeltaRegion{{Bytes: req.Body}}
		var err error
		if msg, info, err = k.decode(req.DeltaTID, b, req.Body, whole[:], b.body); err != nil {
			return nil, info, err
		}
	}
	if !held {
		if k.bases.Len() >= maxDeltaBases {
			if tid, ok := k.bases.Tail(); ok {
				k.drop(tid)
			}
		}
		k.bases.PushFront(req.DeltaTID, b)
	}
	b.epoch = req.DeltaEpoch
	b.body = append(b.body[:0], req.Body...)
	if info.FullParse {
		k.decoded(b, msg)
	}
	k.account(b)
	req.DeltaAck = true
	req.DeltaAckTID = req.DeltaTID
	req.DeltaAckEpoch = req.DeltaEpoch
	return msg, info, nil
}

// apply reconstructs a request body from a patch frame and the held
// base: the base's body, patched in place and verified, valid until the
// keeper's next call. Every failure — unknown template, epoch skew,
// malformed frame, checksum mismatch — returns an error wrapping
// wire.ErrDeltaResync, which the transport answers as 409/resync; the
// client then resends in full and resynchronizes. A refused frame leaves
// the base as it was: the checksum is verified before anything is
// decoded, and a mismatch puts the overwritten bytes back.
func (k *baseKeeper) apply(req *transport.Request) (*deltaBase, error) {
	f := &k.frame
	if err := wire.ParseDeltaFrame(f, req.Body); err != nil {
		return nil, err
	}
	var b *deltaBase
	if k.bases != nil {
		b, _ = k.bases.Get(f.TID)
	}
	if b == nil {
		return nil, fmt.Errorf("serverpool: no base for template %d: %w", f.TID, wire.ErrDeltaResync)
	}
	if b.epoch != f.BaseEpoch {
		return nil, fmt.Errorf("serverpool: template %d at epoch %d, patch expects %d: %w",
			f.TID, b.epoch, f.BaseEpoch, wire.ErrDeltaResync)
	}
	var err error
	if k.old, err = f.Apply(b.body, k.old[:0]); err != nil {
		return nil, err
	}
	b.epoch = f.NewEpoch
	return b, nil
}

// decodePatch brings the template of b, the base the last apply
// patched, up to its new bytes from the frame's own regions: only the
// leaves whose bytes those regions changed are re-lexed, and a change
// outside every leaf falls back to a full parse of the body where it
// lies.
func (k *baseKeeper) decodePatch(b *deltaBase) (*wire.Message, diffdeser.Info, error) {
	msg, info, err := k.decode(k.frame.TID, b, b.body, k.frame.Regions, k.old)
	if err != nil {
		return nil, info, err
	}
	if info.FullParse {
		k.decoded(b, msg)
		k.account(b)
	}
	return msg, info, nil
}

// decode brings b's template up to src, which differs from the body the
// template was last decoded from only inside regions (old holding what
// they replaced). A body that will not decode costs the base: its bytes
// and its template go together.
func (k *baseKeeper) decode(tid uint64, b *deltaBase, src []byte, regions []wire.DeltaRegion, old []byte) (*wire.Message, diffdeser.Info, error) {
	msg, info, err := b.tpl.DecodeRegions(src, regions, old, k.lookup)
	if err != nil {
		k.drop(tid)
	}
	return msg, info, err
}
