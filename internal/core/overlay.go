package core

import (
	"errors"
	"fmt"

	"bsoap/internal/fastconv"
	"bsoap/internal/soapenv"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Chunk overlaying (paper §3.3) bounds the memory cost of differential
// serialization for very large arrays: instead of keeping the whole
// serialized array resident, one chunk's worth of items is serialized,
// streamed to the transport, and then the *same memory* is overlaid with
// the next portion of the array. The item tags are written once when the
// resident chunk is first laid out; every later portion rewrites only
// the values, so — as the paper observes — overlay performance tracks
// 100% value re-serialization.
//
// Overlaying requires every item to have a fixed serialized span, so the
// stub's WidthPolicy must give each scalar kind a bound (fixed or
// MaxWidth); strings are not supported.

// overlayState is the resident-chunk layout for one operation, rebuilt
// whenever the message structure changes.
type overlayState struct {
	sig string
	// head/tail are kept as []byte so the per-call StreamChunk sends
	// need no string conversion (and hence no allocation).
	head, tail   []byte
	itemSpan     int   // bytes per item in the resident chunk
	perItem      int   // scalar leaves per item
	valueOff     []int // per-leaf value offset within the item span
	valueWidth   []int // per-leaf field width
	valueClose   []string
	frame        []byte // static item frame: tags plus blank value fields
	itemsPerMbuf int    // items per resident chunk
	// Two resident buffers: CallOverlay uses only the first; the
	// pipelined variant alternates so serialization of one portion
	// overlaps the transport write of the previous one.
	resident [2][]byte
	laidOut  [2]int // items laid out per resident buffer
}

// memoryFootprint reports the overlay engine's resident cost for one
// operation: the head/tail strings, the item frame, and the resident
// buffers — independent of array length, unlike a full template.
func (st *overlayState) memoryFootprint() int {
	n := len(st.head) + len(st.tail) + len(st.frame)
	for _, r := range st.resident {
		n += cap(r)
	}
	return n
}

// OverlayFootprint reports the resident memory of the overlay state for
// an operation, or 0 if none exists.
func (s *Stub) OverlayFootprint(op string) int {
	if st, ok := s.overlays[op]; ok {
		return st.memoryFootprint()
	}
	return 0
}

// errOverlayUnsupported reports a message shape the overlay engine does
// not handle.
var errOverlayUnsupported = errors.New("core: overlay requires a message whose final parameter is an array of bounded-width scalars or structs; scalar parameters may precede it")

// CallOverlay sends m through sink using chunk overlaying. The message's
// final parameter must be an array; any preceding parameters are scalars
// serialized into the message head. The template store is not used: the
// resident chunk *is* the (single-portion) template, kept across calls.
func (s *Stub) CallOverlay(m *wire.Message, sink StreamSink) (CallInfo, error) {
	return s.overlay(m, sink, false)
}

// CallOverlayPipelined is CallOverlay with pipelined send (companion
// paper [3], "Chunk-Overlaying and Pipelined-Send"): a writer goroutine
// streams portion k while the caller serializes portion k+1 into the
// alternate resident buffer, overlapping conversion with transport I/O.
func (s *Stub) CallOverlayPipelined(m *wire.Message, sink StreamSink) (CallInfo, error) {
	return s.overlay(m, sink, true)
}

// overlay is the one portion loop behind both entry points; pipelined
// picks its send step: inline from resident buffer 0, or a pipeWriter
// goroutine while the loop alternates the two buffers. Every exit after
// a successful BeginStream ends the stream unless the sink itself
// failed, so a value too wide for its field still leaves a whole
// (unparseable) request and a connection in step for the next call.
func (s *Stub) overlay(m *wire.Message, sink StreamSink, pipelined bool) (CallInfo, error) {
	var ci CallInfo
	st, err := s.overlayStateFor(m)
	if err != nil {
		return ci, err
	}
	arr := m.Params()[len(m.Params())-1]
	s.beginCall(m, &ci)
	if err := sink.BeginStream(); err != nil {
		return s.endCall(m, &ci, fmt.Errorf("core: overlay begin: %w", err))
	}

	var pw *pipeWriter // nil: sequential
	if pipelined {
		pw = startPipeWriter(sink)
	}
	var ferr error // a portion that could not be filled
	serr := pw.send(sink, st.head)
	ci.Bytes += len(st.head)
	buf := 0
	for base := 0; serr == nil && base < arr.Count; base += st.itemsPerMbuf {
		n := min(arr.Count-base, st.itemsPerMbuf)
		var portion []byte
		if portion, ferr = st.fillPortion(m, arr, base, n, buf, &s.scr, &ci); ferr != nil {
			break
		}
		serr = pw.send(sink, portion)
		ci.Bytes += len(portion)
		if serr == nil && s.scr.span != 0 {
			trace.Rec(s.scr.span, trace.KindOverlayPortion, int64(base), int64(n), int64(len(portion)))
		}
		if pw != nil {
			buf ^= 1
		}
	}
	if serr == nil && ferr == nil {
		serr = pw.send(sink, st.tail)
		ci.Bytes += len(st.tail)
	}
	if pw != nil {
		serr = pw.stop()
	}

	switch {
	case serr != nil:
		err = errors.Join(ferr, fmt.Errorf("core: overlay send: %w", serr))
	case ferr != nil:
		// The peer's answer to the truncated body does not change the
		// outcome: the call failed on its own value.
		_ = sink.EndStream()
		err = ferr
	default:
		if err = sink.EndStream(); err != nil {
			err = fmt.Errorf("core: overlay end: %w", err)
		} else {
			ci.Match = StructuralMatch
		}
	}
	return s.endCall(m, &ci, err)
}

// pipeWriter is the pipelined send step: a goroutine streams each portion
// handed to it. A handoff completes only once the writer is free, that
// is once the previous portion's StreamChunk has returned, so the
// resident buffer the loop fills next is never one still being written.
type pipeWriter struct {
	ch   chan []byte
	done chan struct{}
	err  error // the sink's error; read only after done is closed
}

func startPipeWriter(sink StreamSink) *pipeWriter {
	w := &pipeWriter{ch: make(chan []byte), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for p := range w.ch {
			if w.err = sink.StreamChunk(p); w.err != nil {
				return
			}
		}
	}()
	return w
}

// send hands p to the writer, or reports the sink's error once the writer
// has stopped on it. Without a writer (sequential mode) it streams p
// inline.
func (w *pipeWriter) send(sink StreamSink, p []byte) error {
	if w == nil {
		return sink.StreamChunk(p)
	}
	select {
	case w.ch <- p:
		return nil
	case <-w.done:
		return w.err
	}
}

// stop waits for the writer to finish the portions handed to it and
// returns the sink's error, if any.
func (w *pipeWriter) stop() error {
	close(w.ch)
	<-w.done
	return w.err
}

// overlayStateFor returns (building if needed) the overlay layout for m.
func (s *Stub) overlayStateFor(m *wire.Message) (*overlayState, error) {
	if s.overlays == nil {
		s.overlays = make(map[string]*overlayState)
	}
	if st, ok := s.overlays[m.Operation()]; ok && st.sig == m.Signature() {
		return st, nil
	}
	st, err := buildOverlayState(m, s.cfg, s.scr.conv)
	if err != nil {
		return nil, err
	}
	s.overlays[m.Operation()] = st
	return st, nil
}

// buildOverlayState validates the message shape and computes the fixed
// per-item layout.
func buildOverlayState(m *wire.Message, cfg Config, conv fastconv.Converter) (*overlayState, error) {
	params := m.Params()
	if len(params) == 0 || params[len(params)-1].Type.Kind != wire.Array {
		return nil, errOverlayUnsupported
	}
	arr := params[len(params)-1]
	for _, p := range params[:len(params)-1] {
		if !p.Type.Kind.Scalar() {
			return nil, errOverlayUnsupported
		}
	}

	st := &overlayState{sig: m.Signature()}

	// Head: envelope, operation, leading scalar params, array open tag.
	head := soapenv.EnvelopeStart(m.Namespace()) + soapenv.OperationStart(m.Operation())
	var scratch [xsdlex.MaxDoubleWidth]byte
	for _, p := range params[:len(params)-1] {
		enc := encodeLeaf(m, p.First, p.Type, scratch[:], conv)
		head += soapenv.ScalarStart(p.Name, p.Type) + string(enc) + soapenv.CloseTag(p.Name)
	}
	head += soapenv.ArrayStart(arr.Name, arr.Type.Elem, arr.Count)
	st.head = []byte(head)
	st.tail = []byte(soapenv.ArrayEnd(arr.Name) + soapenv.OperationEnd(m.Operation()) + soapenv.EnvelopeEnd)

	// Per-item layout: collect scalar fields in document order and build
	// the static frame (tags plus blank value fields) as one pass.
	var walk func(t *wire.Type, tag string) error
	walk = func(t *wire.Type, tag string) error {
		if t.Kind == wire.Struct {
			st.frame = append(st.frame, soapenv.OpenTag(tag)...)
			for _, f := range t.Fields {
				if err := walk(f.Type, f.Name); err != nil {
					return err
				}
			}
			st.frame = append(st.frame, soapenv.CloseTag(tag)...)
			return nil
		}
		var w int
		switch p := cfg.Width.policyFor(t); {
		case t.Kind == wire.String:
			return errOverlayUnsupported
		case p == MaxWidth:
			w = t.MaxWidth()
		case p > 0:
			w = p
		default:
			// Exact-width fields cannot be overlaid: the next portion's
			// values would not fit a previously laid-out frame.
			return errOverlayUnsupported
		}
		cls := soapenv.CloseTag(tag)
		st.frame = append(st.frame, soapenv.OpenTag(tag)...)
		st.valueOff = append(st.valueOff, len(st.frame))
		st.valueWidth = append(st.valueWidth, w)
		st.valueClose = append(st.valueClose, cls)
		for i := 0; i < w+len(cls); i++ {
			st.frame = append(st.frame, ' ')
		}
		return nil
	}
	if err := walk(arr.Type.Elem, soapenv.ItemTag); err != nil {
		return nil, err
	}
	st.itemSpan = len(st.frame)
	st.perItem = arr.Type.LeavesPerValue()

	chunkSize := cfg.Chunk.ChunkSize
	if chunkSize <= 0 {
		chunkSize = 32 * 1024
	}
	st.itemsPerMbuf = chunkSize / st.itemSpan
	if st.itemsPerMbuf < 1 {
		st.itemsPerMbuf = 1
	}
	st.resident[0] = make([]byte, st.itemsPerMbuf*st.itemSpan)
	return st, nil
}

// fillPortion serializes items [base, base+n) of arr into resident
// buffer buf and returns the filled slice. Item frames (tags, padding)
// are laid out the first time the buffer must hold that many items;
// afterwards only the values are rewritten — "the tags that describe
// the data need not be rewritten" (§3.3).
func (st *overlayState) fillPortion(m *wire.Message, arr wire.Param, base, n, buf int, sc *scratch, ci *CallInfo) ([]byte, error) {
	res := st.resident[buf]
	if res == nil {
		res = make([]byte, st.itemsPerMbuf*st.itemSpan)
		st.resident[buf] = res
	}
	for st.laidOut[buf] < n {
		copy(res[st.laidOut[buf]*st.itemSpan:], st.frame)
		st.laidOut[buf]++
	}
	for it := 0; it < n; it++ {
		ibase := it * st.itemSpan
		leaf := arr.First + (base+it)*st.perItem
		for f := 0; f < st.perItem; f++ {
			off := ibase + st.valueOff[f]
			enc := sc.encode(m, leaf+f, m.LeafType(leaf+f))
			if len(enc) > st.valueWidth[f] {
				return nil, fmt.Errorf("core: overlay value wider (%d) than field (%d); use a bounded WidthPolicy", len(enc), st.valueWidth[f])
			}
			copy(res[off:], enc)
			cls := st.valueClose[f]
			copy(res[off+len(enc):], cls)
			fastconv.Pad(res, off+len(enc)+len(cls), off+st.valueWidth[f]+len(cls))
			ci.ValuesRewritten++
		}
	}
	return res[:n*st.itemSpan], nil
}
