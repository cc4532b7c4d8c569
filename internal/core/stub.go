package core

import (
	"fmt"
	"net"
	"unsafe"

	"bsoap/internal/fastconv"
	"bsoap/internal/replica"
	"bsoap/internal/soapenv"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Store holds a stub's templates keyed by operation. It is part of the
// Stub that owns it and has no synchronization of its own: a Call
// mutates the looked-up Template's bytes in place, so the store is
// confined exactly as its stub is — to one goroutine, or to whoever
// holds the pool engine or server replica lock around the stub. Recency
// within an operation is tracked by the tree's one LRU
// (internal/replica); a warm-path lookup allocates nothing.
type Store struct {
	byOp map[string]*replica.LRU[string, *Template]
	cap  int // templates retained per operation (Config.MaxTemplatesPerOp)
}

// lookup finds a template with the given structural signature, moving it
// to the front (LRU position) when found.
func (st *Store) lookup(op, sig string) *Template {
	if l := st.byOp[op]; l != nil {
		if t, ok := l.Get(sig); ok {
			return t
		}
	}
	return nil
}

// remove deletes the template with the given signature, if present,
// returning its arenas to the pool (callers discard suspect templates;
// their bytes are no longer in flight once the failed send returned),
// and the operation's list with its last template.
func (st *Store) remove(op, sig string) {
	if l := st.byOp[op]; l != nil {
		if t, ok := l.Remove(sig); ok {
			t.release()
		}
		if l.Len() == 0 {
			delete(st.byOp, op)
		}
	}
}

// insert records a new template at the LRU front, evicting the least
// recently used beyond capacity. Insertion happens only on first-time
// sends (which allocate a whole template anyway); warm calls never come
// here. An evicted template's chunk arenas go back to the pool (safe:
// insert runs inside a Call on the owning stub, so nothing evicted can be
// mid-send).
func (st *Store) insert(op string, t *Template) {
	l := st.byOp[op]
	if l == nil {
		l = replica.NewLRU[string, *Template]()
		st.byOp[op] = l
	}
	if l.Len() >= st.cap {
		if _, victim, ok := l.RemoveTail(); ok {
			victim.release()
		}
	}
	l.PushFront(t.sig, t)
}

// TemplateCount reports the number of stored templates (all operations).
func (st *Store) TemplateCount() int {
	n := 0
	for _, l := range st.byOp {
		n += l.Len()
	}
	return n
}

// footprint sums the memoryFootprint of every stored template and the
// store's own bookkeeping for them: per operation a slot in byOp and its
// LRU, whose nodes and index slots are one per template.
func (st *Store) footprint() int {
	const perOp = int(unsafe.Sizeof("") + unsafe.Sizeof((*replica.LRU[string, *Template])(nil)))
	n := 0
	for _, l := range st.byOp {
		n += perOp + l.SizeBytes()
		l.FromFront(func(_ string, t *Template) bool {
			n += t.memoryFootprint()
			return true
		})
	}
	return n
}

// ReleaseAll returns every template's chunk arenas to the pool and
// empties the store. The unified replica registry calls this (through
// the pool entry's ReleaseArenas) once an evicted entry's last in-flight
// call has returned; a late MarkSuspect from a pipelined response simply
// misses its lookup afterwards.
func (st *Store) ReleaseAll() {
	for op, l := range st.byOp {
		for {
			_, t, ok := l.RemoveTail()
			if !ok {
				break
			}
			t.release()
		}
		delete(st.byOp, op)
	}
}

// Stub is a client-side SOAP endpoint employing differential
// serialization. It owns its templates (paper §1) and is not safe for
// concurrent use: one goroutine drives it, or — for pooled engines and
// server replicas — whoever holds that engine's or replica's lock. To
// reuse one serialization for several destinations, swap the stub's
// sink between sends rather than sharing templates between stubs.
type Stub struct {
	cfg      Config
	sink     Sink
	store    Store
	stats    Stats
	overlays map[string]*overlayState
	scr      scratch // per-stub send scratch, alive across calls
	// fp caches the store's footprint as of footprint generation fpGen
	// (see Footprint).
	fp    int
	fpGen int64
}

// scratch is the stub's reusable working memory: everything a warm send
// needs that is not part of the template itself. It is confined to the
// owning stub (one goroutine at a time — for pooled replicas, whoever
// holds the replica lock), so no locking is needed, and it is never
// released: a steady-state send reuses it wholesale and performs zero
// heap allocations.
type scratch struct {
	// bufs is the vectored-send header handed to Sink.Send, refilled
	// from the template's chunks each call (see Buffer.BuffersInto).
	bufs net.Buffers
	// enc holds one leaf's lexical form. It starts at the numeric
	// maximum width and grows to the longest string leaf seen, so
	// re-serializing strings stays allocation-free once warm. A diff-off
	// call renders its whole message here instead (it encodes no single
	// leaf), converging on the largest message sent.
	enc []byte
	// regs and delta are the differential-transmission working set:
	// the coalesced dirty regions of the call in progress and the
	// encoded frame/region headers (region payloads alias template
	// chunks and are never copied). Both converge on the largest call
	// seen and then stop allocating.
	regs  []deltaRegion
	delta []byte
	// conv is the double converter every value of the stub prints
	// through, chosen at construction (NewStubWithConverter).
	conv fastconv.Converter
	// span is the flight-recorder span of the call in progress: set by
	// the pool runtime (SetTraceSpan) or self-allocated at Call entry
	// when tracing is on, consumed (reset to zero) when the call's span
	// is closed. Zero whenever tracing is off, making every hook a plain
	// field test.
	span uint64
}

// encode renders leaf i's lexical form into the scratch buffer. The
// returned slice aliases the scratch and is valid until the next encode.
// When a string leaf escapes to more than the scratch holds, the grown
// buffer is kept: the scratch converges on the longest leaf seen and
// then stops allocating.
func (sc *scratch) encode(m *wire.Message, i int, typ *wire.Type) []byte {
	if cap(sc.enc) < xsdlex.MaxDoubleWidth {
		sc.enc = make([]byte, 0, xsdlex.MaxDoubleWidth)
	}
	out := encodeLeaf(m, i, typ, sc.enc[:cap(sc.enc)], sc.conv)
	if cap(out) > cap(sc.enc) {
		sc.enc = out
	}
	return out
}

// NewStub returns a stub sending through sink, printing doubles with the
// default converter.
func NewStub(cfg Config, sink Sink) *Stub { return NewStubWithConverter(cfg, sink, 0) }

// NewStubWithConverter returns a stub sending through sink whose doubles
// print through conv — fastconv.Dragon for the 2004-era cost emulation.
func NewStubWithConverter(cfg Config, sink Sink, conv fastconv.Converter) *Stub {
	c := cfg.withDefaults()
	return &Stub{cfg: c, sink: sink, scr: scratch{conv: conv}, store: Store{
		byOp: make(map[string]*replica.LRU[string, *Template]),
		cap:  c.MaxTemplatesPerOp,
	}}
}

// Stats returns cumulative counters.
func (s *Stub) Stats() Stats { return s.stats }

// Footprint reports the memory held by the stub's stored templates: its
// contribution to a pooled or server replica's budget accounting. Only
// template builds and buffer reshaping (grows, splits) change it —
// in-place rewrites, tag shifts, shifts and steals reuse existing bytes,
// and a diff-off call never touches the store — so the walk over the
// chunk lists is cached and redone only when one of those counters has
// moved since.
func (s *Stub) Footprint() int {
	if gen := s.stats.FirstTimeSends + s.stats.Grows + s.stats.Splits; gen != s.fpGen {
		s.fpGen = gen
		s.fp = s.store.footprint()
	}
	return s.fp
}

// SetTraceSpan hands the stub the flight-recorder span for the next
// Call, letting a runtime that owns the call lifecycle (internal/pool)
// stitch pool-level events (checkout, redial, retry) and core-level
// events (match, rewrite, shift) into one timeline. The span is consumed
// by the Call; without one, a traced Call allocates its own span id.
func (s *Stub) SetTraceSpan(span uint64) { s.scr.span = span }

// beginCall is every call's prologue: it opens the call's trace span
// (the runtime's, or a fresh one when tracing is on) and records the
// call start.
func (s *Stub) beginCall(m *wire.Message, ci *CallInfo) {
	if trace.Enabled() && s.scr.span == 0 {
		s.scr.span = trace.BeginSpan()
	}
	if s.scr.span != 0 {
		ci.Span = s.scr.span
		trace.Rec(s.scr.span, trace.KindCallStart, trace.OpID(m.Operation()), int64(m.DirtyCount()), 0)
	}
}

// endCall is every call's epilogue. A call that succeeded clears m's
// dirty bits and is counted; a failed one keeps both, so a retry
// re-serializes the same changes. Either way the trace span is closed
// and reset so it cannot leak into the next call.
func (s *Stub) endCall(m *wire.Message, ci *CallInfo, err error) (CallInfo, error) {
	if err == nil {
		m.ClearDirty()
		s.stats.add(*ci)
	}
	if span := s.scr.span; span != 0 {
		if err != nil {
			trace.Rec(span, trace.KindCallErr, int64(ci.Match), int64(ci.Bytes), 0)
		} else {
			trace.Rec(span, trace.KindCallEnd, int64(ci.Match), int64(ci.Bytes), int64(ci.BytesSerialized))
		}
		s.scr.span = 0
	}
	return *ci, err
}

// Store exposes the stub's template store (memory accounting, release,
// tests, inspector tool). It shares the stub's confinement.
func (s *Stub) Store() *Store { return &s.store }

// Template returns the current template for an operation+signature, or
// nil (tests, inspector tool).
func (s *Stub) Template(op, sig string) *Template { return s.store.lookup(op, sig) }

// MarkSuspect poisons the stored template for (op, sig), if present, so
// the structure's next Call degrades to a full first-time serialization.
// Call does this itself when a send fails; MarkSuspect is for owners who
// learn about a delivery failure later — the pipelined pool marks a
// template suspect when a call's response never arrives, after the send
// itself succeeded and the template's bytes left unconfirmed. It
// reports whether a template was found. MarkSuspect needs the same
// external synchronization as Call (the pool holds the replica lock).
func (s *Stub) MarkSuspect(op, sig string) bool {
	tpl := s.store.lookup(op, sig)
	if tpl == nil {
		return false
	}
	tpl.suspect = true
	return true
}

// Call serializes and sends m, reusing the saved template when possible.
// On success the message's dirty bits are cleared; on a send error they
// are preserved so a retry re-serializes the same changes, and the
// template is marked suspect: the next call of that structure is forced
// through a full first-time serialization (CallInfo.Degraded) rather
// than patching bytes whose delivery state is unknown.
func (s *Stub) Call(m *wire.Message) (CallInfo, error) {
	var ci CallInfo
	s.beginCall(m, &ci)

	if s.cfg.DisableDiff {
		return s.fromScratch(m, &ci)
	}

	op := m.Operation()
	tpl := s.store.lookup(op, m.Signature())
	if tpl != nil && tpl.suspect {
		// The template's last send failed mid-flight: its on-wire state
		// is unknown, so degrade gracefully — discard it and serialize
		// this call from the live values as a fresh first-time send
		// rather than trusting possibly half-delivered bytes.
		s.store.remove(op, tpl.sig)
		tpl = nil
		ci.Degraded = true
	}
	switch {
	case tpl == nil:
		// First-Time Send: serialize fully and save the template.
		ci.Match = FirstTime
		var ok bool
		if tpl, ok = newTemplate(m, s.cfg, &s.scr); !ok {
			return s.unrepresentable(m, &ci)
		}
		s.store.insert(op, tpl)
		if s.scr.span != 0 {
			trace.Rec(s.scr.span, trace.KindTemplateBuild, trace.OpID(op), int64(tpl.buf.Len()), 0)
		}

	case tpl.msg == m && tpl.version == m.Version():
		if !m.AnyDirty() {
			ci.Match = ContentMatch
		} else {
			ci.Match = StructuralMatch
			if !tpl.applyDiff(m, &ci, &s.scr) {
				return s.unrepresentable(m, &ci)
			}
			if ci.Shifts > 0 || ci.Steals > 0 {
				ci.Match = PartialMatch
			}
		}

	default:
		// Same structure, different message object (or the bound message
		// was structurally rebuilt to an identical shape): the template
		// bytes are reusable but the dirty bits are not — re-serialize
		// every value, still skipping all tag generation.
		tpl.msg = m
		tpl.version = m.Version()
		m.MarkAllDirty()
		ci.Match = StructuralMatch
		if s.scr.span != 0 {
			trace.Rec(s.scr.span, trace.KindTemplateRebind, trace.OpID(op), 0, 0)
		}
		if !tpl.applyDiff(m, &ci, &s.scr) {
			return s.unrepresentable(m, &ci)
		}
		if ci.Shifts > 0 || ci.Steals > 0 {
			ci.Match = PartialMatch
		}
	}

	if s.scr.span != 0 {
		degraded := int64(0)
		if ci.Degraded {
			degraded = 1
		}
		trace.Rec(s.scr.span, trace.KindMatch, int64(ci.Match), degraded, 0)
	}

	ci.Bytes = tpl.buf.Len()
	ci.WireBytes = ci.Bytes
	if ci.Match == FirstTime {
		ci.BytesSerialized = ci.Bytes
	}
	err := s.send(tpl, m, &ci)
	if err != nil {
		// The send died with the template bytes possibly half-delivered:
		// mark the template suspect so the next call of this structure
		// degrades to a full re-serialization instead of an incremental
		// patch. Dirty bits stay set (see endCall), so no change is lost.
		tpl.suspect = true
		err = fmt.Errorf("core: send: %w", err)
		if s.scr.span != 0 {
			trace.Rec(s.scr.span, trace.KindTemplateSuspect, trace.OpID(op), 0, 0)
		}
	}
	return s.endCall(m, &ci, err)
}

// fromScratch serializes m in one pass and sends it, with no template:
// the diff-off mode, and a message whose template the DUT table cannot
// represent.
func (s *Stub) fromScratch(m *wire.Message, ci *CallInfo) (CallInfo, error) {
	ci.Match = FullSerialization
	s.scr.enc = soapenv.AppendMessage(s.scr.enc[:0], m, s.scr.conv)
	ci.Bytes = len(s.scr.enc)
	ci.WireBytes = ci.Bytes
	ci.BytesSerialized = ci.Bytes
	s.scr.bufs = append(s.scr.bufs[:0], s.scr.enc)
	err := s.sink.Send(s.scr.bufs)
	if err != nil {
		err = fmt.Errorf("core: send: %w", err)
	}
	return s.endCall(m, ci, err)
}

// unrepresentable serves from scratch a call whose template the DUT
// table could not represent, dropping the template if it was stored (a
// failed build kept nothing). What the call did to the dropped template
// is not reported, and the footprint cache is invalidated, since the
// store changed without a build, grow or split being counted.
func (s *Stub) unrepresentable(m *wire.Message, ci *CallInfo) (CallInfo, error) {
	s.store.remove(m.Operation(), m.Signature())
	*ci = CallInfo{Span: ci.Span}
	s.fpGen = -1
	return s.fromScratch(m, ci)
}
