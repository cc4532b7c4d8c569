package core

import (
	"fmt"
	"net"
	"slices"

	"bsoap/internal/fastconv"
	"bsoap/internal/replica"
	"bsoap/internal/soapenv"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Store holds a bare stub's templates keyed by operation, up to
// replica.TemplatesPerOp of them each. It is part of the Stub that owns
// it and has no synchronization of its own: a Call mutates the
// looked-up Template's bytes in place, so the store is confined exactly
// as its stub is, to one goroutine. Each operation keeps its templates
// most recently used first; a warm-path lookup allocates nothing. Neither
// runtime stores templates here: a pool engine and a server replica's
// operation each hold their one template themselves (CallHeld).
type Store struct {
	byOp map[string]*opTemplates
}

// opTemplates is one operation's templates, most recently used first;
// the slots past the last template are nil.
type opTemplates [replica.TemplatesPerOp]*Template

// lookup finds a template with the given structural signature, moving it
// to the front (most recently used) when found.
func (st *Store) lookup(op, sig string) *Template {
	l := st.byOp[op]
	if l == nil {
		return nil
	}
	for i, t := range l {
		if t == nil {
			break
		}
		if t.sig == sig {
			copy(l[1:i+1], l[:i])
			l[0] = t
			return t
		}
	}
	return nil
}

// swap puts t in old's place for op, either of them nil. CallHeld has
// released old already. A new template goes to the front, evicting the
// least recently used beyond the cap: that happens only on first-time
// sends (which allocate a whole template anyway), and an evicted
// template's chunk arenas go back to the pool (safe: swap runs inside a
// Call on the owning stub, so nothing evicted can be mid-send). An
// operation leaves the store with its last template.
func (st *Store) swap(op string, old, t *Template) {
	l := st.byOp[op]
	if old != nil {
		i := slices.Index(l[:], old)
		copy(l[i:], l[i+1:])
		l[len(l)-1] = nil
	}
	if t != nil {
		if l == nil {
			l = new(opTemplates)
			st.byOp[op] = l
		}
		if victim := l[len(l)-1]; victim != nil {
			victim.Release()
		}
		copy(l[1:], l[:len(l)-1])
		l[0] = t
	}
	if l != nil && l[0] == nil {
		delete(st.byOp, op)
	}
}

// ReleaseAll returns every template's chunk arenas to the pool and
// empties the store.
func (st *Store) ReleaseAll() {
	for op, l := range st.byOp {
		for _, t := range l {
			if t != nil {
				t.Release()
			}
		}
		delete(st.byOp, op)
	}
}

// Stub is a client-side SOAP endpoint employing differential
// serialization. Through Call it owns its templates (paper §1); through
// CallHeld it serializes through a template its caller keeps — a pool
// connection slot's stub through the engine it checked out, a server
// replica's stub through the operation it answers. It is not safe for
// concurrent use: one goroutine drives it, or — for pool slots and
// server replicas — whoever holds that slot or replica. To reuse
// one serialization for several destinations, swap the stub's sink
// between sends rather than sharing templates between stubs.
type Stub struct {
	cfg      Config
	sink     Sink
	store    Store
	stats    Stats
	overlays map[string]*overlayState
	scr      scratch // per-stub send scratch, alive across calls
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
	// re-serializing strings stays allocation-free once warm. A
	// from-scratch call renders its whole message here instead (it
	// encodes no single leaf), converging on the largest message sent.
	enc []byte
	// regs and delta are the differential-transmission working set:
	// the coalesced dirty regions of the call in progress and the
	// encoded frame/region headers (region payloads alias template
	// chunks and are never copied). Both converge on the largest call
	// seen and then stop allocating.
	regs  []deltaRegion
	delta []byte
	// grammar compiles a from-scratch call's framing and parameters into
	// the steps it renders by, converging on the widest parameter sent.
	grammar soapenv.Compiler
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
	return &Stub{cfg: cfg, sink: sink, scr: scratch{conv: conv}, store: Store{
		byOp: make(map[string]*opTemplates),
	}}
}

// Stats returns cumulative counters.
func (s *Stub) Stats() Stats { return s.stats }

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

// Store exposes the stub's template store (release, tests, inspector
// tool). It shares the stub's confinement.
func (s *Stub) Store() *Store { return &s.store }

// Template returns the current template for an operation+signature, or
// nil (tests, inspector tool).
func (s *Stub) Template(op, sig string) *Template { return s.store.lookup(op, sig) }

// Call serializes and sends m, reusing the stored template of m's
// structure when possible: the store lookup around CallHeld, which
// keeps whatever template the call leaves.
func (s *Stub) Call(m *wire.Message) (CallInfo, error) {
	op := m.Operation()
	tpl := s.store.lookup(op, m.Signature())
	held := tpl
	ci, err := s.CallHeld(&held, m)
	if held != tpl {
		s.store.swap(op, tpl, held)
	}
	return ci, err
}

// CallHeld serializes and sends m through *held, the template that the
// caller keeps (nil for none), and leaves in *held what to keep: a new
// template after a first-time send, nil after the template was dropped.
// A held template of another structure than m's is replaced through a
// first-time send. It releases any template it replaced. A nil held
// serves m from scratch and keeps nothing.
//
// On success the message's dirty bits are cleared; on a send error they
// are preserved so a retry re-serializes the same changes, and the
// template is marked suspect: the next call of that structure is forced
// through a full first-time serialization (CallInfo.Degraded) rather
// than patching bytes whose delivery state is unknown. The template
// needs the same confinement as the stub for the whole call.
func (s *Stub) CallHeld(held **Template, m *wire.Message) (CallInfo, error) {
	var ci CallInfo
	s.beginCall(m, &ci)
	if held == nil {
		return s.fromScratch(m, &ci)
	}
	op := m.Operation()
	tpl := *held
	if tpl != nil && tpl.suspect {
		// The template's last send failed mid-flight: its on-wire state
		// is unknown, so degrade gracefully — discard it and serialize
		// this call from the live values as a fresh first-time send
		// rather than trusting possibly half-delivered bytes.
		tpl.Release()
		tpl, *held = nil, nil
		ci.Degraded = true
	}
	if tpl != nil && (tpl.msg != m || tpl.version != m.Version()) && tpl.sig != m.Signature() {
		// A template of another structure: its caller keeps one template
		// for whatever shape it sends (a server operation whose handler
		// reshaped its response). Drop it; this is a first-time send.
		tpl.Release()
		tpl, *held = nil, nil
	}
	switch {
	case tpl == nil:
		// First-Time Send: serialize fully and keep the template.
		ci.Match = FirstTime
		var ok bool
		if tpl, ok = newTemplate(m, &s.cfg, &s.scr); !ok {
			return s.unrepresentable(held, m, &ci)
		}
		*held = tpl
		if s.scr.span != 0 {
			trace.Rec(s.scr.span, trace.KindTemplateBuild, trace.OpID(op), int64(tpl.buf.Len()), 0)
		}

	case tpl.msg == m && tpl.version == m.Version():
		if !m.AnyDirty() {
			ci.Match = ContentMatch
		} else {
			ci.Match = StructuralMatch
			if !tpl.applyDiff(m, &ci, &s.scr, s.cfg.EnableStealing) {
				return s.unrepresentable(held, m, &ci)
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
		if !tpl.applyDiff(m, &ci, &s.scr, s.cfg.EnableStealing) {
			return s.unrepresentable(held, m, &ci)
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
// a call with nothing held, and a message whose template the DUT table
// cannot represent.
func (s *Stub) fromScratch(m *wire.Message, ci *CallInfo) (CallInfo, error) {
	ci.Match = FullSerialization
	s.scr.enc = s.scr.grammar.AppendMessage(s.scr.enc[:0], m, s.scr.conv)
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
// table could not represent, dropping the template if one was held (a
// failed build kept nothing). What the call did to the dropped template
// is not reported.
func (s *Stub) unrepresentable(held **Template, m *wire.Message, ci *CallInfo) (CallInfo, error) {
	if *held != nil {
		(*held).Release()
		*held = nil
	}
	*ci = CallInfo{Span: ci.Span}
	return s.fromScratch(m, ci)
}
