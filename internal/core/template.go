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
	cfg Config

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

// Signature returns the structural signature the template was built for.
func (t *Template) Signature() string { return t.sig }

// Message returns the message the template is bound to: the one whose
// dirty bits describe its bytes (tests check a runtime's own record of
// the binding against it).
func (t *Template) Message() *wire.Message { return t.msg }

// Suspect reports whether the template's last send failed mid-flight
// (the next call of this structure will degrade to a fresh first-time
// serialization). Exposed for the /debug/templates view and tests.
func (t *Template) Suspect() bool { return t.suspect }

// Bytes returns a contiguous copy of the serialized message.
func (t *Template) Bytes() []byte { return t.buf.Bytes() }

// DeltaID returns the template's process-unique delta-wire identity.
func (t *Template) DeltaID() uint64 { return t.deltaID }

// DeltaEpoch returns the template's current content version.
func (t *Template) DeltaEpoch() uint64 { return t.deltaEpoch }

// MemoryFootprint estimates the template's resident cost in bytes: the
// arenas its chunks hold, the DUT table, and the headers that tie them
// together (the template, its chunk buffer, and a chunk and arena header
// per chunk) — the storage the paper's §3.3 identifies as differential
// serialization's price, and what chunk overlaying bounds to a single
// chunk. With tails fitted to their messages the headers are a fifth of
// a small template, so they are charged too.
func (t *Template) MemoryFootprint() int {
	const entrySize = 64 // approximate per-entry size of dut.Entry
	const fixed = int(unsafe.Sizeof(Template{}) + unsafe.Sizeof(chunk.Buffer{}))
	const perChunk = int(unsafe.Sizeof(chunk.Chunk{}) + unsafe.Sizeof(membuf.Buf{}))
	return t.buf.Footprint() + t.tab.Len()*entrySize + fixed + t.buf.NumChunks()*perChunk
}

// encodeLeaf renders leaf i's lexical form into scratch (which must have
// capacity ≥ MaxDoubleWidth for numeric kinds); strings may allocate.
func encodeLeaf(m *wire.Message, i int, typ *wire.Type, scratch []byte) []byte {
	switch typ.Kind {
	case wire.Int:
		n := fastconv.WriteInt(scratch, m.LeafInt(i))
		return scratch[:n]
	case wire.Double:
		n := fastconv.WriteDouble(scratch, m.LeafDouble(i))
		return scratch[:n]
	case wire.Bool:
		n := fastconv.WriteBool(scratch, m.LeafBool(i))
		return scratch[:n]
	case wire.String:
		return xsdlex.EscapeText(scratch[:0], m.LeafString(i))
	}
	panic("core: encodeLeaf of non-scalar " + typ.Name)
}

// release returns the template's chunk arenas to the pool. Only the
// template store calls this, on eviction or suspect removal, under the
// same external synchronization as the Calls using the template — so
// nothing released can still be mid-send.
func (t *Template) release() {
	t.buf.Release()
}

// nextDeltaID allocates process-unique template identities for the
// delta wire. Starting at 1 keeps 0 free as "no template".
var nextDeltaID atomic.Uint64

// newTemplate fully serializes m and records the DUT table — the
// paper's First-Time Send.
func newTemplate(m *wire.Message, cfg Config, sc *scratch) *Template {
	t := &Template{
		sig:     m.Signature(),
		msg:     m,
		version: m.Version(),
		buf:     chunk.New(cfg.Chunk),
		cfg:     cfg,
		deltaID: nextDeltaID.Add(1),
	}
	t.tab.Entries = make([]dut.Entry, 0, m.NumLeaves())
	t.buf.Span = sc.span
	t.buf.AppendString(soapenv.EnvelopeStart(m.Namespace()))
	t.buf.AppendString(soapenv.OperationStart(m.Operation()))
	leaf := 0
	for _, p := range m.Params() {
		leaf = t.emitParam(m, &p, leaf, sc)
	}
	t.buf.AppendString(soapenv.OperationEnd(m.Operation()))
	t.buf.AppendString(soapenv.EnvelopeEnd)
	t.buf.FitTail() // the template is complete: size its last chunk to what it holds
	if leaf != m.NumLeaves() {
		panic(fmt.Sprintf("core: emitted %d leaves, message has %d", leaf, m.NumLeaves()))
	}
	return t
}

// emitStep is one step of serializing a value: markup copied as it
// stands and then, for a scalar leaf, the leaf's value field.
type emitStep struct {
	lit string     // open tag of the leaf, or a struct's own open or close tag
	typ *wire.Type // the leaf's scalar type; nil when the step is only markup
	cls string     // the leaf's closing tag
}

// appendSteps appends the steps that serialize one value of type typ
// wrapped in <tag>…</tag>. An array resolves its element's tags here once
// and then runs the steps per item.
func appendSteps(steps []emitStep, typ *wire.Type, tag string) []emitStep {
	open, cls := soapenv.OpenTag(tag), soapenv.CloseTag(tag)
	if typ.Kind != wire.Struct {
		return append(steps, emitStep{lit: open, typ: typ, cls: cls})
	}
	steps = append(steps, emitStep{lit: open})
	for _, f := range typ.Fields {
		steps = appendSteps(steps, f.Type, f.Name)
	}
	return append(steps, emitStep{lit: cls})
}

// emitParam serializes one parameter starting at leaf index `leaf` and
// returns the next leaf index.
func (t *Template) emitParam(m *wire.Message, p *wire.Param, leaf int, sc *scratch) int {
	var buf [8]emitStep // an MIO element is five steps; a wider type spills to the heap
	switch p.Type.Kind {
	case wire.Array:
		t.buf.AppendString(soapenv.ArrayStart(p.Name, p.Type.Elem, p.Count))
		steps := appendSteps(buf[:0], p.Type.Elem, soapenv.ItemTag)
		for i := 0; i < p.Count; i++ {
			leaf = t.emitSteps(m, steps, leaf, sc)
		}
		t.buf.AppendString(soapenv.ArrayEnd(p.Name))
	case wire.Struct:
		t.buf.AppendString(soapenv.StructStart(p.Name, p.Type))
		steps := buf[:0]
		for _, f := range p.Type.Fields {
			steps = appendSteps(steps, f.Type, f.Name)
		}
		leaf = t.emitSteps(m, steps, leaf, sc)
		t.buf.AppendString(soapenv.CloseTag(p.Name))
	default:
		open := soapenv.ScalarStart(p.Name, p.Type)
		leaf = t.emitScalar(m, p.Type, open, soapenv.CloseTag(p.Name), leaf, sc)
	}
	return leaf
}

// emitSteps serializes one value by its steps.
func (t *Template) emitSteps(m *wire.Message, steps []emitStep, leaf int, sc *scratch) int {
	for i := range steps {
		if st := &steps[i]; st.typ == nil {
			t.buf.AppendString(st.lit)
		} else {
			leaf = t.emitScalar(m, st.typ, st.lit, st.cls, leaf, sc)
		}
	}
	return leaf
}

// emitScalar serializes one scalar leaf with the configured stuffing and
// records its DUT entry.
func (t *Template) emitScalar(m *wire.Message, typ *wire.Type, open, cls string, leaf int, sc *scratch) int {
	t.buf.AppendString(open)
	enc := sc.encode(m, leaf, typ)
	width := t.cfg.Width.widthFor(typ, len(enc))
	span := width + len(cls)
	pos := t.buf.Reserve(span)
	b := pos.C.Bytes()
	copy(b[pos.Off:], enc)
	copy(b[pos.Off+len(enc):], cls)
	fastconv.Pad(b, pos.Off+len(enc)+len(cls), pos.Off+span)
	t.tab.Append(dut.Entry{
		Type:     typ,
		Chunk:    pos.C,
		Off:      pos.Off,
		SerLen:   len(enc),
		Width:    width,
		CloseTag: cls,
	})
	return leaf + 1
}

// applyDiff re-serializes exactly the dirty leaves of m into the
// template, expanding fields as needed, and updates ci. The walk ends at
// the last dirty leaf, not at the last leaf.
func (t *Template) applyDiff(m *wire.Message, ci *CallInfo, sc *scratch) {
	t.buf.Span = sc.span // attribute chunk grow/split events to this call
	n := t.tab.Len()
	for i, left := 0, m.DirtyCount(); i < n && left > 0; i++ {
		if !m.Dirty(i) {
			continue
		}
		left--
		t.rewriteLeaf(m, i, sc, ci)
	}
}

// rewriteLeaf writes leaf i's current value into its template field.
func (t *Template) rewriteLeaf(m *wire.Message, i int, sc *scratch, ci *CallInfo) {
	e := t.tab.At(i)
	enc := sc.encode(m, i, e.Type)
	if sc.span != 0 {
		trace.Rec(sc.span, trace.KindRewrite, int64(i), int64(e.SerLen), int64(len(enc)))
	}
	if len(enc) > e.Width {
		// Partial structural match: the field must be expanded.
		deficit := len(enc) - e.Width
		donor, stolen := -1, false
		if t.cfg.EnableStealing {
			donor, stolen = t.trySteal(i, deficit)
		}
		if stolen {
			ci.Steals++
			if sc.span != 0 {
				trace.Rec(sc.span, trace.KindSteal, int64(i), int64(deficit), int64(donor))
			}
		} else {
			t.shiftGrow(i, deficit, ci, sc)
			ci.Shifts++
		}
		e = t.tab.At(i) // the entry's chunk may have changed
	}
	b := e.Chunk.Bytes()
	copy(b[e.Off:], enc)
	if len(enc) != e.SerLen {
		// Closing-tag shift: rewrite the tag right after the value and
		// pad the remainder of the field with whitespace (paper §3.2).
		copy(b[e.Off+len(enc):], e.CloseTag)
		fastconv.Pad(b, e.Off+len(enc)+len(e.CloseTag), e.SpanEnd())
		e.SerLen = len(enc)
		ci.TagShifts++
		if sc.span != 0 {
			trace.Rec(sc.span, trace.KindTagShift, int64(i), int64(len(enc)), int64(e.Width))
		}
	}
	ci.ValuesRewritten++
	ci.BytesSerialized += len(enc)
}

// shiftGrow expands entry i's field by deficit bytes using on-the-fly
// message expansion: consume the chunk's slack, grow the chunk up to the
// split threshold, or split the chunk and expand there (paper §3.2).
func (t *Template) shiftGrow(i, deficit int, ci *CallInfo, sc *scratch) {
	e := t.tab.At(i)
	c := e.Chunk
	pos := e.SpanEnd()

	if c.Slack() < deficit {
		if c.Len()+deficit <= t.buf.Config().SplitThreshold {
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
				if off, ok := t.tab.FirstOffAtOrAfter(c, target); ok && off > pos {
					at = off
				}
			}
			nc := t.buf.SplitChunk(c, at)
			t.tab.FixupSplit(c, nc, at)
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
	t.tab.FixupShift(c, pos, deficit)
	e.Width += deficit
}

// trySteal serves a field expansion by taking padding from a nearby
// entry in the same chunk, moving only the bytes between the grower and
// the donor's padding instead of shifting the whole chunk tail
// (companion paper [4] explores this dynamic field resizing). Donors to
// the right are preferred — the move there excludes the grower's own
// bytes — then donors to the left. Returns the donor's entry index so
// the flight recorder can name it.
func (t *Template) trySteal(i, deficit int) (int, bool) {
	if j, ok := t.stealRight(i, deficit); ok {
		return j, true
	}
	return t.stealLeft(i, deficit)
}

// stealRight takes padding from a donor after the grower.
func (t *Template) stealRight(i, deficit int) (int, bool) {
	e := t.tab.At(i)
	c := e.Chunk
	limit := i + 1 + t.cfg.StealScan
	if limit > c.EntryHi {
		limit = c.EntryHi
	}
	for j := i + 1; j < limit; j++ {
		d := t.tab.At(j)
		if d.Pad() < deficit {
			continue
		}
		// Move [grower's span end, donor's pad start) right by deficit.
		src := e.SpanEnd()
		padStart := d.Off + d.SerLen + len(d.CloseTag)
		b := c.Bytes()
		copy(b[src+deficit:padStart+deficit], b[src:padStart])
		// Entries strictly between grower and donor, and the donor
		// itself, moved right; the donor's width shrinks by what it
		// donated, the grower's grows.
		for k := i + 1; k <= j; k++ {
			t.tab.At(k).Off += deficit
		}
		d.Width -= deficit
		e.Width += deficit
		return j, true
	}
	return 0, false
}

// stealLeft takes padding from a donor before the grower: the bytes
// from the donor's trimmed span end up to the grower's value start move
// left, and the grower's field opens toward lower offsets.
func (t *Template) stealLeft(i, deficit int) (int, bool) {
	e := t.tab.At(i)
	c := e.Chunk
	limit := i - t.cfg.StealScan
	if limit < c.EntryLo {
		limit = c.EntryLo
	}
	for j := i - 1; j >= limit; j-- {
		d := t.tab.At(j)
		if d.Pad() < deficit {
			continue
		}
		// Move [donor's span end, grower's value start) left by deficit,
		// consuming the tail of the donor's padding. The grower's open
		// tag travels with the moved region.
		src := d.SpanEnd()
		b := c.Bytes()
		copy(b[src-deficit:e.Off-deficit], b[src:e.Off])
		for k := j + 1; k <= i; k++ {
			t.tab.At(k).Off -= deficit
		}
		d.Width -= deficit
		e.Width += deficit
		return j, true
	}
	return 0, false
}
