package serverpool

import (
	"fmt"

	"bsoap/internal/diffdeser"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// maxDeltaBases bounds the bases one keeper holds, LRU-evicted by id. A
// client whose working set exceeds the cap just resends full bodies for
// the evicted templates — the same lossless degradation as every other
// delta failure.
const maxDeltaBases = 32

// derived marks the id of a base the server holds for requests that name
// no template: the high bit, which no client sets (core numbers its
// templates up from 1), then the registered operation's number and the
// body's length. Two bodies that share an id (a length past 32 bits, an
// operation registered twice) cost full parses, never a wrong value: a
// decode checks the held bytes' length and markup.
const derived = 1 << 63

// deltaBase is one held request body — the template body as last
// synchronized by the client, at the epoch the client labeled it with, or
// the last unnamed body of its operation and length — and, on a keeper
// that decodes, while the base is among its operation's most recently
// used, the decode template of those very bytes. Patch frames rewrite
// body in place; the client's CRC over the whole reconstructed body is
// what proves the rewrite landed on the right bytes.
type deltaBase struct {
	epoch uint64
	body  []byte
	tpl   diffdeser.Template
	op    string // the operation tpl decoded; "" while tpl holds nothing
	cost  int64  // what the base adds to the keeper's bytes
}

// baseKeeper holds every request body one connection's worth of state
// retains — the delta protocol's patch bases by the client's template id
// and, on a keeper that decodes, the bodies of requests that name no
// template by derived id — with their aggregate footprint for the owner's
// budget and the reused patch-parse scratch. Every replica owns one, and
// so does the conformance Recorder per connection: the protocol has this
// one implementation. A replica's keeper also decodes (lookup is set): a
// base carries the diffdeser template of its own bytes, so every request
// is decoded against the one copy of the body the server holds.
//
// One admission rule bounds decode state: per operation, only the
// reg.TemplatesPerOp most recently decoded bases keep their templates. A
// named base beyond them holds bare bytes until its next sync or patch
// parses them again; a derived one is dropped, since without a template
// its bytes serve nothing. A derived id new to an operation that holds
// its full count is admitted only when the doorkeeper refused it
// recently. Not safe for concurrent use; the owner's lock guards it.
type baseKeeper struct {
	bases  *reg.LRU[uint64, *deltaBase]
	bytes  int64
	lookup soapdec.Lookup
	frame  wire.DeltaFrame
	// old holds the bytes the last applied frame overwrote, region after
	// region: O(dirty), and what the decode compares the regions with.
	old []byte
	// door remembers the derived ids refused lately, and a refused body
	// decodes into scratch, so a keeper that keeps refusing reuses one
	// message; like a template's message it is not charged.
	door    reg.Doorkeeper
	scratch soapdec.Scratch
	// onDrop, when set, hears of every patch base given up — evicted at
	// the cap, or dropped because its body would not decode.
	onDrop func()
}

// newKeeper returns a keeper decoding through lookup (nil: none).
func newKeeper(lookup soapdec.Lookup, onDrop func()) *baseKeeper {
	return &baseKeeper{bases: reg.NewLRU[uint64, *deltaBase](), lookup: lookup, onDrop: onDrop}
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
// bases beyond the newest reg.TemplatesPerOp. b is the most recently
// used base, so it keeps its own. Each call adds one template at most, so
// at most one is given up.
func (k *baseKeeper) decoded(b *deltaBase, msg *wire.Message) {
	b.op = msg.Operation()
	n, spent := 0, uint64(0)
	k.bases.FromFront(func(tid uint64, o *deltaBase) bool {
		if o.op != b.op {
			return true
		}
		if n++; n > reg.TemplatesPerOp {
			if tid&derived != 0 {
				spent = tid
			} else {
				o.tpl, o.op = diffdeser.Template{}, ""
				k.account(o)
			}
		}
		return true
	})
	if spent != 0 {
		k.drop(spent)
	}
}

// hold makes b the most recently used base, under tid, giving up the
// least recently used one at the cap.
func (k *baseKeeper) hold(tid uint64, b *deltaBase) {
	if k.bases.Len() >= maxDeltaBases {
		if old, ok := k.bases.Tail(); ok {
			k.drop(old)
		}
	}
	k.bases.PushFront(tid, b)
}

// drop gives up the base held for tid: its bytes and its decode state go
// together.
func (k *baseKeeper) drop(tid uint64) {
	if b, ok := k.bases.Remove(tid); ok {
		k.bytes -= b.cost
		if k.onDrop != nil && tid&derived == 0 {
			k.onDrop()
		}
	}
}

// dropFront gives up the most recently used base: the one the last
// decode served.
func (k *baseKeeper) dropFront() {
	var tid uint64
	k.bases.FromFront(func(id uint64, _ *deltaBase) bool {
		tid = id
		return false
	})
	k.drop(tid)
}

// sync makes a sync-annotated full body the patch base for its template
// and asks the transport to acknowledge it (the ack is what flips the
// client delta-capable). A decoding keeper decodes the body into the
// base's template first — against the held bytes when the base still has
// its template and the length holds, else in full — and retains and
// acknowledges the body only if it decodes: one that does not leaves no
// base for its template id. The message is the template's (nil on a
// keeper that does not decode).
func (k *baseKeeper) sync(req *transport.Request) (*wire.Message, diffdeser.Info, error) {
	b, held := k.bases.Get(req.DeltaTID)
	if !held {
		b = &deltaBase{}
	}
	var msg *wire.Message
	var info diffdeser.Info
	if k.lookup == nil {
		b.body = append(b.body[:0], req.Body...)
	} else {
		var err error
		if msg, info, err = b.tpl.DecodeBody(req.Body, &b.body, k.lookup); err != nil {
			k.drop(req.DeltaTID)
			return nil, info, err
		}
	}
	if !held {
		k.hold(req.DeltaTID, b)
	}
	b.epoch = req.DeltaEpoch
	if info.FullParse {
		k.decoded(b, msg)
	}
	k.account(b)
	req.DeltaAck = true
	req.DeltaAckTID = req.DeltaTID
	req.DeltaAckEpoch = req.DeltaEpoch
	return msg, info, nil
}

// unnamed decodes a body that names no template, of the registered
// operation op, against the base derived from op and the body's length:
// on the fast path, or by a full parse that refreshes it. An id the
// keeper holds no base for gets one while op holds fewer than
// reg.TemplatesPerOp templates, or when the doorkeeper refused the id
// within its last reg.TemplatesPerOp refusals; any other body is decoded
// into scratch, keeps nothing and reports Info.Refused. Nothing is
// acknowledged: a client cannot name a derived id.
func (k *baseKeeper) unnamed(op *operation, body []byte) (*wire.Message, diffdeser.Info, error) {
	tid := derived | uint64(op.id)<<32 | uint64(uint32(len(body)))
	b, held := k.bases.Get(tid)
	others := 0
	if !held {
		k.bases.FromFront(func(_ uint64, o *deltaBase) bool {
			if o.op == op.schema.Op {
				others++
			}
			return true
		})
		if others >= reg.TemplatesPerOp && !k.door.Admit(tid, reg.TemplatesPerOp) {
			msg, err := k.scratch.Decode(body, k.lookup)
			return msg, diffdeser.Info{FullParse: true, Reason: diffdeser.ReasonLength, Refused: err == nil}, err
		}
		b = &deltaBase{}
	}
	msg, info, err := b.tpl.DecodeBody(body, &b.body, k.lookup)
	if !held && others > 0 {
		info.Reason = diffdeser.ReasonLength
	}
	if err != nil {
		k.drop(tid)
		return nil, info, err
	}
	if !held {
		k.hold(tid, b)
	}
	if info.FullParse {
		k.decoded(b, msg)
		k.account(b)
	}
	return msg, info, nil
}

// apply reconstructs a request body from a patch frame and the held
// base: the base's body, patched in place and verified, valid until the
// keeper's next call. Every failure — unknown template, a derived id,
// epoch skew, malformed frame, checksum mismatch — returns an error
// wrapping wire.ErrDeltaResync, which the transport answers as
// 409/resync; the client then resends in full and resynchronizes. A
// refused frame leaves the base as it was: the checksum is verified
// before anything is decoded, and a mismatch puts the overwritten bytes
// back.
func (k *baseKeeper) apply(req *transport.Request) (*deltaBase, error) {
	f := &k.frame
	if err := wire.ParseDeltaFrame(f, req.Body); err != nil {
		return nil, err
	}
	var b *deltaBase
	if f.TID&derived == 0 {
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
// lies. A body that will not decode costs the base: its bytes and its
// template go together.
func (k *baseKeeper) decodePatch(b *deltaBase) (*wire.Message, diffdeser.Info, error) {
	msg, info, err := b.tpl.DecodeRegions(b.body, k.frame.Regions, k.old, k.lookup)
	if err != nil {
		k.drop(k.frame.TID)
		return nil, info, err
	}
	if info.FullParse {
		k.decoded(b, msg)
		k.account(b)
	}
	return msg, info, nil
}
