package core

import (
	"time"

	"bsoap/internal/chunk"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
)

// Differential transmission (client side): when the sink reports the
// peer synchronized with a template, the dirty leaf spans the engine
// already tracked for the diff become the wire payload — a patch frame
// of (offset, length, bytes) regions plus a checksum — instead of the
// full body. The encoder reuses the stub's scratch wholesale, so a
// steady-state delta send allocates nothing.

// deltaRegion is one contiguous dirty run, addressed both chunk-locally
// (to alias the template bytes in the gather vector) and absolutely
// (the frame's body offset).
type deltaRegion struct {
	c      *chunk.Chunk
	lo, hi int // chunk-local byte range
	abs    int // absolute body offset of lo
}

// send pushes the template onto the sink, preferring a patch frame when
// the sink is delta-capable and synchronized with this template at its
// pre-call epoch. An error propagates so CallHeld applies the usual
// suspect/degraded algebra.
func (s *Stub) send(tpl *Template, m *wire.Message, ci *CallInfo) error {
	ds, capable := s.sink.(DeltaSink)
	if !capable {
		return s.sink.Send(tpl.buf.BuffersInto(&s.scr.bufs))
	}
	// The epoch names the template's content version: capture the base
	// (what a synchronized peer holds) before bumping for any call that
	// changed the bytes. Failed sends bump too — harmless, since their
	// epoch is never acknowledged and correctness rides the checksum.
	baseEpoch := tpl.deltaEpoch
	if ci.Match != ContentMatch {
		tpl.deltaEpoch++
	}
	if s.deltaEligible(ds, tpl, ci, baseEpoch) {
		start := time.Now()
		if ok := s.encodeDelta(tpl, m, ci, baseEpoch); ok {
			ci.DeltaEncodeNs = time.Since(start).Nanoseconds()
			if err := ds.SendDelta(s.scr.bufs, tpl.deltaID, tpl.deltaEpoch); err != nil {
				return err
			}
			ci.DeltaSent = true
			if s.scr.span != 0 {
				trace.Rec(s.scr.span, trace.KindDeltaSend, int64(ci.WireBytes), int64(ci.Bytes), int64(tpl.deltaID))
			}
			return nil
		}
	}
	return ds.SendFull(tpl.buf.BuffersInto(&s.scr.bufs), tpl.deltaID, tpl.deltaEpoch)
}

// deltaEligible reports whether this call can go out as a patch frame:
// the diff stayed within field widths (no shifts, steals, grows or
// splits — those move bytes the dirty bits don't cover), and the sink
// believes the peer holds this template at exactly the pre-call epoch.
func (s *Stub) deltaEligible(ds DeltaSink, tpl *Template, ci *CallInfo, baseEpoch uint64) bool {
	if ci.Match != ContentMatch && ci.Match != StructuralMatch {
		return false
	}
	if ci.Shifts != 0 || ci.Steals != 0 || ci.Grows != 0 || ci.Splits != 0 {
		return false
	}
	synced, ok := ds.DeltaEpoch(tpl.deltaID)
	return ok && synced == baseEpoch
}

// encodeDelta builds the patch frame into the stub's scratch and fills
// s.scr.bufs with the gather vector (frame header, then per region an
// 8-byte header followed by bytes aliasing the template's chunks — the
// region payload is never copied). Returns false when the frame would
// not be smaller than the full body; the caller then sends full.
//
// Dirty leaves are visited in table order, which is buffer order, so a
// single cursor walks the chunk list to turn (chunk, offset) positions
// into absolute body offsets; adjacent dirty spans in the same chunk
// coalesce into one region. The walk ends at the last dirty leaf.
func (s *Stub) encodeDelta(tpl *Template, m *wire.Message, ci *CallInfo, baseEpoch uint64) bool {
	sc := &s.scr
	regs := sc.regs[:0]
	var cur *chunk.Chunk
	curOff := 0
	frameLen := wire.DeltaHeaderLen
	n := tpl.tab.Len()
	for i, left := 0, m.DirtyCount(); i < n && left > 0; i++ {
		if !m.Dirty(i) {
			continue
		}
		left--
		e := tpl.tab.At(i)
		if ec := tpl.tab.Chunk(e); ec != cur {
			if cur == nil {
				cur = tpl.buf.Head()
			}
			for cur != ec {
				curOff += cur.Len()
				cur = cur.Next()
				if cur == nil {
					return false // table/buffer skew; punt to a full send
				}
			}
		}
		lo, hi := e.Off(), tpl.tab.SpanEnd(e)
		if k := len(regs) - 1; k >= 0 && regs[k].c == cur && regs[k].hi == lo {
			regs[k].hi = hi
			frameLen += hi - lo
		} else {
			regs = append(regs, deltaRegion{c: cur, lo: lo, hi: hi, abs: curOff + lo})
			frameLen += wire.DeltaRegionHeaderLen + (hi - lo)
		}
	}
	sc.regs = regs
	bodyLen := tpl.buf.Len()
	if frameLen >= bodyLen {
		return false
	}

	// Checksum the full reconstructed body (what the peer must end up
	// holding) chunk by chunk — CRC32-C, hardware-assisted.
	var crc uint32
	for c := tpl.buf.Head(); c != nil; c = c.Next() {
		crc = wire.DeltaCRCUpdate(crc, c.Bytes())
	}

	// Lay the frame header and all region headers into one scratch
	// buffer first (so later appends cannot move earlier subslices),
	// then assemble the gather vector.
	hdrLen := wire.DeltaHeaderLen + len(regs)*wire.DeltaRegionHeaderLen
	if cap(sc.delta) < hdrLen {
		sc.delta = make([]byte, 0, hdrLen+hdrLen/2)
	}
	d := sc.delta[:0]
	d = wire.AppendDeltaHeader(d, tpl.deltaID, baseEpoch, tpl.deltaEpoch, bodyLen, crc, len(regs))
	for i := range regs {
		d = wire.AppendDeltaRegionHeader(d, regs[i].abs, regs[i].hi-regs[i].lo)
	}
	sc.delta = d

	bufs := sc.bufs[:0]
	bufs = append(bufs, d[:wire.DeltaHeaderLen])
	p := wire.DeltaHeaderLen
	for i := range regs {
		bufs = append(bufs, d[p:p+wire.DeltaRegionHeaderLen], regs[i].c.Bytes()[regs[i].lo:regs[i].hi])
		p += wire.DeltaRegionHeaderLen
	}
	sc.bufs = bufs
	ci.WireBytes = frameLen
	return true
}
