// Package core implements differential serialization (bSOAP), the
// contribution of "Differential Serialization for Optimized SOAP
// Performance" (HPDC 2004).
//
// A Stub keeps, per operation, the fully serialized form of the last
// message sent (the template, stored in chunks) together with a DUT table
// mapping each in-memory scalar to its byte location in the template. On
// each Call the outgoing message is classified against the saved
// template:
//
//   - Message Content Match: nothing dirty — resend the saved bytes.
//   - Perfect Structural Match: every dirty value still fits its field
//     width — overwrite the changed values in place.
//   - Partial Structural Match: some value outgrew its width — steal
//     neighbour padding or shift bytes (bounded by chunk size).
//   - First-Time Send: no template of this structure — serialize fully
//     and record the template.
//
// Stuffing (allocating fields wider than the value and padding with
// whitespace) is controlled by WidthPolicy; chunk overlaying for huge
// arrays lives in overlay.go.
package core

import (
	"net"

	"bsoap/internal/chunk"
	"bsoap/internal/wire"
)

// MatchKind classifies how a Call was served (paper §3, the four
// matching possibilities, plus a from-scratch send).
type MatchKind int

const (
	// FirstTime is a full serialization that records a new template.
	FirstTime MatchKind = iota
	// ContentMatch resent the template bytes unchanged.
	ContentMatch
	// StructuralMatch rewrote only dirty values, all within their field
	// widths (the paper's perfect structural match).
	StructuralMatch
	// PartialMatch rewrote dirty values and had to expand at least one
	// field (stealing or shifting).
	PartialMatch
	// FullSerialization is a from-scratch serialization that keeps no
	// template (the paper's "bSOAP Full Serialization"): CallHeld(nil, m),
	// or a message whose template the DUT table cannot represent.
	FullSerialization
)

// String returns a readable match name.
func (k MatchKind) String() string {
	switch k {
	case FirstTime:
		return "first-time send"
	case ContentMatch:
		return "message content match"
	case StructuralMatch:
		return "perfect structural match"
	case PartialMatch:
		return "partial structural match"
	case FullSerialization:
		return "full serialization"
	}
	return "unknown match"
}

// MaxWidth selects the type's maximum lexical width in a WidthPolicy
// field (the paper's full stuffing: shifting can never occur).
const MaxWidth = -1

// WidthPolicy chooses the field width allocated per scalar kind when a
// template is first serialized: 0 allocates exactly the value's length,
// a positive n stuffs to at least n characters (the paper's intermediate
// widths), and MaxWidth stuffs to the type's maximum. Strings have no
// maximum and always use at least their current length.
type WidthPolicy struct {
	Int    int
	Double int
	Bool   int
	String int
}

// policyFor returns the raw policy value for a scalar type.
func (w WidthPolicy) policyFor(t *wire.Type) int {
	switch t.Kind {
	case wire.Int:
		return w.Int
	case wire.Double:
		return w.Double
	case wire.Bool:
		return w.Bool
	case wire.String:
		return w.String
	}
	return 0
}

// widthFor resolves the policy for one value of scalar type t whose
// encoded length is serLen.
func (w WidthPolicy) widthFor(t *wire.Type, serLen int) int {
	p := w.policyFor(t)
	switch {
	case p == 0:
		return serLen
	case p == MaxWidth:
		mw := t.MaxWidth()
		if mw < serLen { // strings: MaxWidth() == 0
			return serLen
		}
		return mw
	default:
		if p < serLen {
			return serLen
		}
		return p
	}
}

// Config tunes a Stub.
type Config struct {
	// Chunk configures the template buffers (chunk size and trailing
	// slack; a chunk splits once it would pass twice its size).
	Chunk chunk.Config
	// Width is the stuffing policy applied at first-time serialization.
	Width WidthPolicy
	// EnableStealing turns on neighbour-padding stealing before falling
	// back to shifting when a value outgrows its field.
	EnableStealing bool
}

// Sink consumes one complete serialized message as a vector of byte
// segments (one per chunk), the shape a scatter-gather send wants.
// Implementations live in internal/transport; tests use CountingSink.
type Sink interface {
	Send(bufs net.Buffers) error
}

// StreamSink consumes a message incrementally; the chunk-overlaying
// engine hands each portion to StreamChunk as soon as it is serialized
// (HTTP/1.1 chunked streaming in the paper).
type StreamSink interface {
	BeginStream() error
	StreamChunk(p []byte) error
	EndStream() error
}

// DeltaSink is a Sink that can negotiate differential transmission:
// sending the dirty regions of a template as a patch frame instead of
// the full body when the peer is known to hold the same template bytes.
// The sink owns the per-connection synchronization state (which
// template ids the peer has acknowledged, and at which epoch); the stub
// owns the template ids and epochs themselves.
type DeltaSink interface {
	Sink
	// DeltaEpoch reports the epoch at which the peer is believed
	// synchronized for template tid; ok is false when the peer has not
	// acknowledged the template (or delta is not negotiated), in which
	// case the stub sends the full body.
	DeltaEpoch(tid uint64) (epoch uint64, ok bool)
	// SendFull sends the complete body, annotated with the template's
	// id and current epoch so a capable peer can store it as the delta
	// base for future patches.
	SendFull(bufs net.Buffers, tid, epoch uint64) error
	// SendDelta sends a patch frame (already encoded by the stub). An
	// error fails the call like any failed send: the template is marked
	// suspect and the message keeps its dirty bits. A sink whose peer
	// refuses patches resends in full itself (the pool resubmits).
	SendDelta(bufs net.Buffers, tid, newEpoch uint64) error
}

// CallInfo reports what one Call did.
type CallInfo struct {
	Match MatchKind
	// Span is the flight-recorder span id grouping this call's trace
	// events (zero when tracing is off).
	Span uint64
	// Bytes is the total message size handed to the sink.
	Bytes int
	// BytesSerialized counts the bytes this call actually converted from
	// in-memory values into their lexical forms: the full message for
	// first-time and from-scratch sends, zero for a content match, and
	// only the rewritten value bytes for structural matches. The gap
	// between BytesSerialized and Bytes is the serialization work
	// differential serialization avoided.
	BytesSerialized int
	// ValuesRewritten counts leaves re-serialized into the template.
	ValuesRewritten int
	// TagShifts counts closing-tag shifts (value shrank or grew within
	// its width, forcing the close tag and padding to be rewritten).
	TagShifts int
	// Shifts counts values whose field had to be expanded by shifting.
	Shifts int
	// Steals counts expansions served by stealing neighbour padding.
	Steals int
	// Grows and Splits count chunk reallocations and chunk splits.
	Grows  int
	Splits int
	// Degraded marks a first-time send that was forced because the
	// structure's previous template was suspect (its last send failed
	// mid-flight), rather than because no template existed.
	Degraded bool
	// WireBytes is what actually went onto the wire for this call: the
	// patch frame size on a delta send, otherwise equal to Bytes. The
	// gap between Bytes (the message the peer reconstructs) and
	// WireBytes is the transmission work differential transmission
	// avoided.
	WireBytes int
	// DeltaSent marks a call served by a patch frame instead of the
	// full body; DeltaResync marks a call whose patch the peer rejected
	// and the pool resent in full (the pool sets it, the stub never).
	DeltaSent   bool
	DeltaResync bool
	// DeltaEncodeNs is the time spent encoding the patch frame
	// (region walk + checksum), for stage attribution.
	DeltaEncodeNs int64
}

// Stats accumulates CallInfo across a Stub's lifetime.
type Stats struct {
	Calls              int64
	FirstTimeSends     int64
	ContentMatches     int64
	StructuralMatches  int64
	PartialMatches     int64
	FullSerializations int64
	// DegradedFTS counts the subset of FirstTimeSends forced by a
	// suspect template (graceful degradation after a failed send).
	DegradedFTS     int64
	BytesSent       int64
	BytesOnWire     int64
	BytesSerialized int64
	ValuesRewritten int64
	TagShifts       int64
	Shifts          int64
	Steals          int64
	Grows           int64
	Splits          int64
	// DeltaSends counts calls served by a patch frame.
	DeltaSends int64
}

func (s *Stats) add(ci CallInfo) {
	s.Calls++
	switch ci.Match {
	case FirstTime:
		s.FirstTimeSends++
		if ci.Degraded {
			s.DegradedFTS++
		}
	case ContentMatch:
		s.ContentMatches++
	case StructuralMatch:
		s.StructuralMatches++
	case PartialMatch:
		s.PartialMatches++
	case FullSerialization:
		s.FullSerializations++
	}
	s.BytesSent += int64(ci.Bytes)
	s.BytesOnWire += int64(ci.WireBytes)
	s.BytesSerialized += int64(ci.BytesSerialized)
	if ci.DeltaSent {
		s.DeltaSends++
	}
	s.ValuesRewritten += int64(ci.ValuesRewritten)
	s.TagShifts += int64(ci.TagShifts)
	s.Shifts += int64(ci.Shifts)
	s.Steals += int64(ci.Steals)
	s.Grows += int64(ci.Grows)
	s.Splits += int64(ci.Splits)
}
