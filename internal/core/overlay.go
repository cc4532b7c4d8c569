package core

import (
	"errors"
	"fmt"

	"bsoap/internal/fastconv"
	"bsoap/internal/soapenv"
	"bsoap/internal/trace"
	"bsoap/internal/wire"
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
	resident     []byte // the one resident chunk every portion overlays
	laidOut      int    // items whose frames resident holds
}

// memoryFootprint reports the overlay engine's resident cost for one
// operation: the head/tail strings, the item frame, and the resident
// chunk — independent of array length, unlike a full template.
func (st *overlayState) memoryFootprint() int {
	return len(st.head) + len(st.tail) + len(st.frame) + cap(st.resident)
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
//
// One loop streams the head, each portion as it is filled into the
// resident buffer, and the tail. Every exit after a successful
// BeginStream ends the stream unless the sink itself failed, so a value
// too wide for its field still leaves a whole (unparseable) request and a
// connection in step for the next call.
func (s *Stub) CallOverlay(m *wire.Message, sink StreamSink) (CallInfo, error) {
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

	var ferr error // a portion that could not be filled
	serr := sink.StreamChunk(st.head)
	ci.Bytes += len(st.head)
	for base := 0; serr == nil && base < arr.Count; base += st.itemsPerMbuf {
		n := min(arr.Count-base, st.itemsPerMbuf)
		var portion []byte
		if portion, ferr = st.fillPortion(m, arr, base, n, &s.scr, &ci); ferr != nil {
			break
		}
		serr = sink.StreamChunk(portion)
		ci.Bytes += len(portion)
		if serr == nil && s.scr.span != 0 {
			trace.Rec(s.scr.span, trace.KindOverlayPortion, int64(base), int64(n), int64(len(portion)))
		}
	}
	if serr == nil && ferr == nil {
		serr = sink.StreamChunk(st.tail)
		ci.Bytes += len(st.tail)
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

// overlayStateFor returns (building if needed) the overlay layout for m.
func (s *Stub) overlayStateFor(m *wire.Message) (*overlayState, error) {
	if s.overlays == nil {
		s.overlays = make(map[string]*overlayState)
	}
	if st, ok := s.overlays[m.Operation()]; ok && st.sig == m.Signature() {
		return st, nil
	}
	st, err := buildOverlayState(m, s.cfg, &s.scr)
	if err != nil {
		return nil, err
	}
	s.overlays[m.Operation()] = st
	return st, nil
}

// buildOverlayState validates the message shape and lays out, from
// soapenv's steps, the message head (with the leading scalars' values),
// the static item frame and the tail.
func buildOverlayState(m *wire.Message, cfg Config, sc *scratch) (*overlayState, error) {
	params := m.Params()
	if len(params) == 0 || params[len(params)-1].Type.Kind != wire.Array {
		return nil, errOverlayUnsupported
	}
	for _, p := range params[:len(params)-1] {
		if !p.Type.Kind.Scalar() {
			return nil, errOverlayUnsupported
		}
	}

	st := &overlayState{sig: m.Signature()}
	var g soapenv.Compiler
	head, tail := g.Operation(m)
	st.head = append(st.head, head...)
	for i := range params[:len(params)-1] {
		_, steps, _, _ := g.Param(&params[i]) // a scalar: one leaf step
		leaf := &steps[0]
		st.head = append(st.head, leaf.Lit...)
		st.head = append(st.head, sc.encode(m, params[i].First, leaf.Leaf)...)
		st.head = append(st.head, leaf.Close...)
	}
	open, steps, end, _ := g.Param(&params[len(params)-1])
	st.head = append(st.head, open...)
	st.tail = append(append(st.tail, end...), tail...)

	// The item frame: one item's markup with a blank field, sized to its
	// bounded width, where each value and its closing tag go.
	for i := range steps {
		s := &steps[i]
		st.frame = append(st.frame, s.Lit...)
		if s.Leaf == nil {
			continue
		}
		var w int
		switch p := cfg.Width.policyFor(s.Leaf); {
		case s.Leaf.Kind == wire.String:
			return nil, errOverlayUnsupported
		case p == MaxWidth:
			w = s.Leaf.MaxWidth()
		case p > 0:
			w = p
		default:
			// Exact-width fields cannot be overlaid: the next portion's
			// values would not fit a previously laid-out frame.
			return nil, errOverlayUnsupported
		}
		st.valueOff = append(st.valueOff, len(st.frame))
		st.valueWidth = append(st.valueWidth, w)
		st.valueClose = append(st.valueClose, string(s.Close))
		for j := 0; j < w+len(s.Close); j++ {
			st.frame = append(st.frame, ' ')
		}
	}
	st.itemSpan = len(st.frame)
	st.perItem = len(st.valueOff)

	chunkSize := cfg.Chunk.ChunkSize
	if chunkSize <= 0 {
		chunkSize = 32 * 1024
	}
	st.itemsPerMbuf = chunkSize / st.itemSpan
	if st.itemsPerMbuf < 1 {
		st.itemsPerMbuf = 1
	}
	st.resident = make([]byte, st.itemsPerMbuf*st.itemSpan)
	return st, nil
}

// fillPortion serializes items [base, base+n) of arr into the resident
// chunk and returns the filled slice. Item frames (tags, padding) are
// laid out the first time the chunk must hold that many items;
// afterwards only the values are rewritten — "the tags that describe
// the data need not be rewritten" (§3.3).
func (st *overlayState) fillPortion(m *wire.Message, arr wire.Param, base, n int, sc *scratch, ci *CallInfo) ([]byte, error) {
	res := st.resident
	for st.laidOut < n {
		copy(res[st.laidOut*st.itemSpan:], st.frame)
		st.laidOut++
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
