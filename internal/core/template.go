package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"bsoap/internal/chunk"
	"bsoap/internal/dut"
	"bsoap/internal/fastconv"
	"bsoap/internal/membuf"
	"bsoap/internal/soapenv"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Template is a saved serialized message: the chunked bytes of the last
// send plus the DUT table pointing into them. It stays bound to the
// message object whose dirty bits it trusts; a structurally identical but
// distinct message rebinds with every value treated as dirty.
type Template struct {
	sig     string
	msg     *wire.Message
	version int

	buf *chunk.Buffer
	tab dut.Table

	// suspect marks a template whose most recent send failed: the peer
	// may hold a half-delivered copy and the repaired connection must not
	// be trusted with incremental state. The next call of this structure
	// discards the template and re-serializes from the live values (a
	// degraded first-time send) instead of diffing against it.
	suspect bool

	// deltaID is the template's process-unique identity on the delta
	// wire (a suspect-discarded template is rebuilt under a fresh id,
	// so stale peer state can never match it); deltaEpoch is the
	// template's content version, bumped whenever its bytes change.
	// The epoch is a fast synchronization filter; the patch frame's
	// checksum is the correctness authority.
	deltaID    uint64
	deltaEpoch uint64
}

// Buffer exposes the template's chunk buffer (transports and tests).
func (t *Template) Buffer() *chunk.Buffer { return t.buf }

// Table exposes the DUT table (tests and the inspector tool).
func (t *Template) Table() *dut.Table { return &t.tab }

// Message returns the message the template is bound to: the one whose
// dirty bits describe its bytes (tests check a runtime's own record of
// the binding against it).
func (t *Template) Message() *wire.Message { return t.msg }

// Bytes returns a contiguous copy of the serialized message.
func (t *Template) Bytes() []byte { return t.buf.Bytes() }

// Footprint estimates the template's resident cost in bytes: the
// arenas its chunks hold, the DUT table at its layout's size, and the
// headers that tie them together (the template, its chunk buffer, and a
// chunk and arena header per chunk) — the storage the paper's §3.3
// identifies as differential serialization's price, and what chunk
// overlaying bounds to a single chunk. With tails fitted to their
// messages the headers are a fifth of a small template, so they are
// charged too.
func (t *Template) Footprint() int {
	const fixed = int(unsafe.Sizeof(Template{}) + unsafe.Sizeof(chunk.Buffer{}))
	const perChunk = int(unsafe.Sizeof(chunk.Chunk{}) + unsafe.Sizeof(membuf.Buf{}))
	const perEntry = int(unsafe.Sizeof(dut.Entry{}))
	return t.buf.Footprint() + t.tab.Len()*perEntry + t.tab.SideBytes() + fixed + t.buf.NumChunks()*perChunk
}

// encodeLeaf renders leaf i's lexical form into scratch (which must have
// capacity ≥ MaxDoubleWidth for numeric kinds), doubles through conv;
// strings may allocate.
func encodeLeaf(m *wire.Message, i int, typ *wire.Type, scratch []byte, conv fastconv.Converter) []byte {
	switch typ.Kind {
	case wire.Int:
		return xsdlex.AppendInt(scratch[:0], m.LeafInt(i))
	case wire.Double:
		n := conv.WriteDouble(scratch, m.LeafDouble(i))
		return scratch[:n]
	case wire.Bool:
		n := fastconv.WriteBool(scratch, m.LeafBool(i))
		return scratch[:n]
	case wire.String:
		return xsdlex.EscapeText(scratch[:0], m.LeafString(i))
	}
	panic("core: encodeLeaf of non-scalar " + typ.Name)
}

// Release returns the template's chunk arenas to the pool. Its keeper
// calls it under the confinement of the calls using the template, so
// nothing released can still be mid-send.
func (t *Template) Release() { t.buf.Release() }

// MarkSuspect makes the next call through the template a degraded
// first-time send, as a failed send does: for a keeper that learns of a
// lost delivery later (a pipelined response that never arrived).
func (t *Template) MarkSuspect() { t.suspect = true }

// nextDeltaID allocates process-unique template identities for the
// delta wire. Starting at 1 keeps 0 free as "no template".
var nextDeltaID atomic.Uint64

// newTemplate fully serializes m and records the DUT table — the
// paper's First-Time Send. It reports false, keeping nothing, when a
// field of the table cannot represent the template (a chunk or kind id,
// an offset or a width out of its entry field's range); the call then
// goes out from scratch.
func newTemplate(m *wire.Message, cfg *Config, sc *scratch) (*Template, bool) {
	t := &Template{
		sig:     m.Signature(),
		msg:     m,
		version: m.Version(),
		buf:     chunk.New(cfg.Chunk),
		deltaID: nextDeltaID.Add(1),
	}
	t.tab = dut.NewTable(m.NumLeaves())
	t.buf.Span = sc.span
	// A build is rare: its compiled steps are garbage after it, not
	// memory every stub keeps.
	var g soapenv.Compiler
	head, tail := g.Operation(m)
	t.buf.Append(head)
	leaf := 0
	params := m.Params()
	for i := range params {
		if leaf = t.emitParam(m, &g, &params[i], leaf, cfg.Width, sc); leaf < 0 {
			t.Release()
			return nil, false
		}
	}
	t.buf.Append(tail)
	t.buf.FitTail() // the template is complete: size its last chunk to what it holds
	if leaf != m.NumLeaves() {
		panic(fmt.Sprintf("core: emitted %d leaves, message has %d", leaf, m.NumLeaves()))
	}
	return t, true
}

// emitParam serializes one parameter by soapenv's steps, starting at
// leaf index leaf, and returns the next leaf index, or -1 when the DUT
// table cannot represent the template. Each leaf step's DUT kind is
// resolved once, before the steps run for every item; each leaf gets a
// field stuffed to width's policy and its DUT entry.
func (t *Template) emitParam(m *wire.Message, g *soapenv.Compiler, p *wire.Param, leaf int, width WidthPolicy, sc *scratch) int {
	open, steps, end, n := g.Param(p)
	var buf [8]int // an MIO item is five steps; a wider type spills to the heap
	kinds := buf[:0]
	for i := range steps {
		k := 0
		if st := &steps[i]; st.Leaf != nil {
			var ok bool
			if k, ok = t.tab.AddKind(st.Leaf, st.Close); !ok {
				return -1
			}
		}
		kinds = append(kinds, k)
	}
	t.buf.Append(open)
	for ; n > 0; n-- {
		for i := range steps {
			st := &steps[i]
			t.buf.Append(st.Lit)
			if st.Leaf == nil {
				continue
			}
			enc := sc.encode(m, leaf, st.Leaf)
			w := width.widthFor(st.Leaf, len(enc))
			span := w + len(st.Close)
			c, off := t.buf.Reserve(span)
			b := c.Bytes()
			copy(b[off:], enc)
			copy(b[off+len(enc):], st.Close)
			fastconv.Pad(b, off+len(enc)+len(st.Close), off+span)
			if !t.tab.Append(c, off, len(enc), w, kinds[i]) {
				return -1
			}
			leaf++
		}
	}
	t.buf.Append(end)
	return leaf
}

// applyDiff re-serializes exactly the dirty leaves of m into the
// template, expanding fields as needed, and updates ci. The walk ends at
// the last dirty leaf, not at the last leaf. A grower steals neighbour
// padding before shifting when stealing is on. It reports false when an
// expansion left a field the DUT table cannot represent: the template is
// then unusable and must be dropped.
func (t *Template) applyDiff(m *wire.Message, ci *CallInfo, sc *scratch, stealing bool) bool {
	t.buf.Span = sc.span // attribute chunk grow/split events to this call
	n := t.tab.Len()
	for i, left := 0, m.DirtyCount(); i < n && left > 0; i++ {
		if !m.Dirty(i) {
			continue
		}
		left--
		if !t.rewriteLeaf(m, i, sc, ci, stealing) {
			return false
		}
	}
	return true
}

// rewriteLeaf writes leaf i's current value into its template field.
func (t *Template) rewriteLeaf(m *wire.Message, i int, sc *scratch, ci *CallInfo, stealing bool) bool {
	e := t.tab.At(i)
	typ, cls := t.tab.Kind(e)
	enc := sc.encode(m, i, typ)
	if sc.span != 0 {
		trace.Rec(sc.span, trace.KindRewrite, int64(i), int64(e.SerLen()), int64(len(enc)))
	}
	if len(enc) > e.Width() {
		// Partial structural match: the field must be expanded.
		deficit := len(enc) - e.Width()
		donor, stolen := -1, false
		if stealing {
			donor, stolen = t.trySteal(i, deficit)
		}
		if stolen {
			ci.Steals++
			if sc.span != 0 {
				trace.Rec(sc.span, trace.KindSteal, int64(i), int64(deficit), int64(donor))
			}
		} else {
			if !t.shiftGrow(i, deficit, ci, sc) {
				return false
			}
			ci.Shifts++
		}
	}
	b := t.tab.Chunk(e).Bytes()
	off := e.Off()
	copy(b[off:], enc)
	if len(enc) != e.SerLen() {
		// Closing-tag shift: rewrite the tag right after the value and
		// pad the remainder of the field with whitespace (paper §3.2).
		copy(b[off+len(enc):], cls)
		fastconv.Pad(b, off+len(enc)+len(cls), t.tab.SpanEnd(e))
		e.SetSerLen(len(enc))
		ci.TagShifts++
		if sc.span != 0 {
			trace.Rec(sc.span, trace.KindTagShift, int64(i), int64(len(enc)), int64(e.Width()))
		}
	}
	ci.ValuesRewritten++
	ci.BytesSerialized += len(enc)
	return true
}

// shiftGrow expands entry i's field by deficit bytes using on-the-fly
// message expansion: consume the chunk's slack, grow the chunk up to the
// split threshold of twice the chunk size, or split the chunk and expand
// there (paper §3.2). It reports false when the DUT table cannot
// represent the result.
func (t *Template) shiftGrow(i, deficit int, ci *CallInfo, sc *scratch) bool {
	e := t.tab.At(i)
	c := t.tab.Chunk(e)
	pos := t.tab.SpanEnd(e)

	if c.Slack() < deficit {
		if c.Len()+deficit <= 2*t.buf.Config().ChunkSize {
			t.buf.GrowChunk(c, deficit)
			ci.Grows++
		} else {
			// Split the chunk into two smaller chunks (paper §3.2),
			// peeling at the entry boundary nearest the middle — but
			// never inside this entry's span — so both halves, and all
			// future shifts within them, stay bounded by half the
			// threshold.
			at := pos
			if target := c.Len() / 2; target > pos {
				if off, ok := t.tab.FirstOffAtOrAfter(e, target); ok && off > pos {
					at = off
				}
			}
			nc := t.buf.SplitChunk(c, at)
			if !t.tab.FixupSplit(i, nc, at) {
				return false
			}
			ci.Splits++
			if c.Slack() < deficit {
				t.buf.GrowChunk(c, deficit)
				ci.Grows++
			}
		}
	}
	if sc.span != 0 {
		trace.Rec(sc.span, trace.KindShift, int64(i), int64(c.Len()-pos), int64(t.buf.Ordinal(c)))
	}
	if !c.InsertGap(pos, deficit) {
		panic("core: InsertGap failed after ensuring room")
	}
	return t.tab.Grow(i, deficit)
}

// stealScan bounds how many entries on each side of a grower are
// examined for a padding donor.
const stealScan = 8

// trySteal serves a field expansion by taking padding from a nearby
// entry in the same chunk, moving only the bytes between the grower and
// the donor's padding instead of shifting the whole chunk tail
// (companion paper [4] explores this dynamic field resizing). Donors to
// the right are preferred — the move there excludes the grower's own
// bytes — then donors to the left. Returns the donor's entry index so
// the flight recorder can name it. A steal the DUT table cannot
// represent moves nothing and is not taken; the shift that serves the
// expansion instead reports the overflow.
func (t *Template) trySteal(i, deficit int) (int, bool) {
	if j, ok := t.stealRight(i, deficit); ok {
		return j, true
	}
	return t.stealLeft(i, deficit)
}

// stealRight takes padding from a donor after the grower.
func (t *Template) stealRight(i, deficit int) (int, bool) {
	e := t.tab.At(i)
	c := t.tab.Chunk(e)
	_, hi := t.tab.Range(e)
	limit := min(i+1+stealScan, hi)
	for j := i + 1; j < limit; j++ {
		d := t.tab.At(j)
		if d.Width()-d.SerLen() < deficit {
			continue
		}
		// Move [grower's span end, donor's pad start) right by deficit.
		// Entries strictly between grower and donor, and the donor
		// itself, moved right; the donor's width shrinks by what it
		// donated, the grower's grows.
		src := t.tab.SpanEnd(e)
		_, cls := t.tab.Kind(d)
		padStart := d.Off() + d.SerLen() + len(cls)
		if !t.tab.Steal(i, j, deficit) {
			return 0, false
		}
		b := c.Bytes()
		copy(b[src+deficit:padStart+deficit], b[src:padStart])
		return j, true
	}
	return 0, false
}

// stealLeft takes padding from a donor before the grower: the bytes
// from the donor's trimmed span end up to the grower's value start move
// left, and the grower's field opens toward lower offsets.
func (t *Template) stealLeft(i, deficit int) (int, bool) {
	e := t.tab.At(i)
	c := t.tab.Chunk(e)
	lo, _ := t.tab.Range(e)
	limit := max(i-stealScan, lo)
	for j := i - 1; j >= limit; j-- {
		d := t.tab.At(j)
		if d.Width()-d.SerLen() < deficit {
			continue
		}
		// Move [donor's span end, grower's value start) left by deficit,
		// consuming the tail of the donor's padding. The grower's open
		// tag travels with the moved region.
		src, end := t.tab.SpanEnd(d), e.Off()
		if !t.tab.Steal(i, j, deficit) {
			return 0, false
		}
		b := c.Bytes()
		copy(b[src-deficit:end-deficit], b[src:end])
		return j, true
	}
	return 0, false
}
