// Package diffdeser implements differential deserialization, the
// server-side mirror of bSOAP proposed in the paper's future work (§6):
// storing messages at the SOAP server suggests the structure of future
// arrivals, letting the server avoid complete parsing.
//
// A Template is the parse result of a retained body plus each scalar
// leaf's variable byte region (value + floating closing tag + padding,
// recorded by soapdec). A new body is compared with the retained bytes
// and only then lexed: every differing byte must lie in some leaf's
// region, and just those regions are re-lexed — a handful of bytes each
// — instead of re-running the full parser. A difference anywhere else
// (markup), or a region that does not lex, falls back to a full parse
// that also refreshes the template.
//
// A Template does not hold the bytes it was decoded from; its owner does.
// On the server one owner exists: a replica's delta keeper (serverpool),
// which holds every retained request body under an id — the client's
// template id for a delta sync or patch frame, an id of its own, derived
// from the operation and the body's length, for a request that names
// none. A patch is decoded through DecodeRegions, compared only where the
// frame's regions say the body changed; a full body through DecodeBody.
// A Deserializer is the same decode for callers outside a server: one
// held body per key, with no cap, admission rule or charge.
package diffdeser

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"unsafe"

	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Info reports how one decode was served.
type Info struct {
	// FullParse is set when the whole envelope was parsed.
	FullParse bool
	// ValuesReparsed counts leaf regions re-lexed on the fast path.
	ValuesReparsed int
	// Reason says why a full parse happened (ReasonNone on the fast path).
	Reason Reason
	// Refused is set on a full parse that kept nothing: the operation's
	// templates were full and the doorkeeper had not refused the body's
	// length recently (the serverpool keeper's admission rule).
	Refused bool
}

// Reason classifies why a decode ran the full parse. The set is closed,
// so a reason can label a metric: what a region's lexer said about a
// peer's bytes stays in the error, and never becomes a label.
type Reason uint8

const (
	// ReasonNone: the fast path served the decode.
	ReasonNone Reason = iota
	// ReasonNoTemplate: nothing is retained for the operation, key or
	// template id.
	ReasonNoTemplate
	// ReasonLength: no retained body of the operation or key has this
	// body's length.
	ReasonLength
	// ReasonMarkup: a byte differs outside every leaf's region.
	ReasonMarkup
	// ReasonValue: a changed region is not a value of its leaf's type,
	// the leaf's closing tag and white space.
	ReasonValue
	// NumReasons sizes an array indexed by Reason.
	NumReasons
)

// String returns the reason as a metric label value ("" for ReasonNone).
func (r Reason) String() string {
	return [NumReasons]string{"", "no_template", "length", "markup", "value"}[r]
}

// Template is the decode state of one retained body: the message the
// body decoded to and, in leaf order, each scalar leaf's variable byte
// region in it. It holds no bytes — whoever retains the body passes it
// in. The zero value has no message, so its first decode is a full
// parse. Not safe for concurrent use.
type Template struct {
	msg    *wire.Message
	ranges []soapdec.LeafRange
}

// SizeBytes estimates the template's resident bytes apart from the body
// it decodes against: the range table at its layout's size and a fixed
// charge for the struct and the message header.
func (t *Template) SizeBytes() int {
	const fixed = 256
	return len(t.ranges)*int(unsafe.Sizeof(soapdec.LeafRange{})) + fixed
}

// DecodeRegions brings the template up to src, a body that differs from
// the one it was last decoded from only inside regions; old holds the
// bytes the regions replaced, region after region: src is a held body
// with a verified patch frame's regions already copied in, old what they
// overwrote. Only the leaves whose bytes differ are re-lexed, from src.
// If the template has no message yet, old is not as long as the regions,
// a difference lies outside every leaf's region or a changed region does
// not lex, src is parsed in full instead and the template refreshed from
// it. The returned message is owned by the template and valid until its
// next decode.
//
// After an error the template is as it was, or empty when the fast path
// had already set leaves from src: it never holds values no body says.
func (t *Template) DecodeRegions(src []byte, regions []wire.DeltaRegion, old []byte, lookup soapdec.Lookup) (*wire.Message, Info, error) {
	msg, info, _, _, err := t.decode(src, regions, old, lookup)
	return msg, info, err
}

// DecodeBody brings the template up to body, a new full body, and *held,
// its owner's copy of the body it was last decoded from, up to body too:
// DecodeRegions with one region spanning body and the held bytes as what
// it replaced. On the fast path only the span from the first to the last
// changed leaf is copied into *held; a full parse copies the whole body.
// After an error *held is as it was.
func (t *Template) DecodeBody(body []byte, held *[]byte, lookup soapdec.Lookup) (*wire.Message, Info, error) {
	whole := [1]wire.DeltaRegion{{Bytes: body}}
	msg, info, lo, hi, err := t.decode(body, whole[:], *held, lookup)
	switch {
	case err != nil:
	case info.FullParse:
		*held = append((*held)[:0], body...)
	default:
		// Outside [lo, hi) the two bodies are equal.
		copy((*held)[lo:hi], body[lo:hi])
	}
	return msg, info, err
}

// decode is DecodeRegions, also returning the span [lo, hi) of src that
// covers every difference the fast path found.
func (t *Template) decode(src []byte, regions []wire.DeltaRegion, old []byte, lookup soapdec.Lookup) (msg *wire.Message, info Info, lo, hi int, err error) {
	why, n := ReasonNoTemplate, 0
	if t.msg != nil {
		why = ReasonLength
		if regionBytes(regions) == len(old) {
			if n, lo, hi, why = t.relexChanged(regions, old, src); why == ReasonNone {
				return t.msg, Info{ValuesReparsed: n}, lo, hi, nil
			}
		}
	}
	info = Info{FullParse: true, Reason: why}
	if err = t.parse(src, lookup); err != nil {
		if n > 0 {
			*t = Template{} // leaves were set from bytes that do not parse
		}
		return nil, info, 0, 0, err
	}
	return t.msg, info, 0, 0, nil
}

func regionBytes(regions []wire.DeltaRegion) int {
	n := 0
	for i := range regions {
		n += len(regions[i].Bytes)
	}
	return n
}

// parse runs the complete schema-driven parse of body and, when it
// succeeds, makes the result the template.
func (t *Template) parse(body []byte, lookup soapdec.Lookup) error {
	res, err := soapdec.Decode(body, lookup, true)
	if err != nil {
		return err
	}
	t.msg, t.ranges = res.Msg, res.Ranges
	return nil
}

// Deserializer decodes full bodies outside a server: it holds one body
// per key with its template, and decodes each new body for the key
// against it through DecodeBody. It keeps no list, cap, admission rule or
// charge — a server replica holds its bodies in its delta keeper instead.
// Not safe for concurrent use.
type Deserializer struct {
	lookup soapdec.Lookup
	keys   map[string]*heldBody
}

// heldBody is a Template with its owner's copy of the body.
type heldBody struct {
	body []byte
	Template
}

// New returns a deserializer resolving operations through lookup.
func New(lookup soapdec.Lookup) *Deserializer {
	return &Deserializer{lookup: lookup, keys: make(map[string]*heldBody)}
}

// Decode parses body, differentially when the body held for key has its
// length and differs from it only inside leaf values. The returned
// message is owned by the deserializer and valid until the next Decode
// with the same key.
func (d *Deserializer) Decode(key string, body []byte) (*wire.Message, Info, error) {
	h := d.keys[key]
	if h == nil {
		h = new(heldBody)
		d.keys[key] = h
	}
	return h.DecodeBody(body, &h.body, d.lookup)
}

// relexChanged walks the bytes at which the regions differ from old, the
// bytes they replaced (region after region, so the two are as long).
// Each difference must fall inside a leaf's variable region — anything
// else is changed markup — and that leaf is set from its region's text in
// src. A leaf is set once, from its whole text, however many regions
// touch it. It returns the leaves set, the span [lo, hi) of the body that
// covers every difference seen, and why it stopped early (ReasonNone when
// it did not).
//
// The cost is one block-wise comparison of the regions with old plus the
// lexing of the leaves that differ; nothing is allocated unless a string
// leaf changed or the walk fails.
func (t *Template) relexChanged(regions []wire.DeltaRegion, old, src []byte) (n, lo, hi int, why Reason) {
	next := 0
	for g := range regions {
		cur, at := regions[g].Bytes, regions[g].Off
		prev := old[:len(cur)]
		old = old[len(cur):]
		// Bytes before hi belong to a leaf that is already set.
		for j := max(hi-at, 0); j < len(cur); {
			j += mismatch(cur[j:], prev[j:])
			if j == len(cur) {
				break
			}
			off := at + j
			// off lies at or after the end of the last range hit, so the
			// range holding it is the next one or one after it: seek
			// forward from there.
			i := seek(t.ranges, next, off)
			if i == len(t.ranges) || off < int(t.ranges[i].Start) {
				return n, lo, hi, ReasonMarkup
			}
			start, end := int(t.ranges[i].Start), int(t.ranges[i].End)
			if !relexRegion(t.msg, i, src[start:end]) {
				return n, lo, hi, ReasonValue
			}
			if n == 0 {
				lo = off
			}
			n++
			next, hi = i+1, end
			j = end - at
		}
	}
	return n, lo, hi, ReasonNone
}

// seek returns the first range at or after from that ends past off, or
// len(ranges) when none does; every range before from must end at or
// before off. It tries from itself first — a changed leaf is most often
// the one after the last — then gallops forward, doubling its step, and
// bisects the last step: a skip over d ranges costs O(log d) probes
// however long the table.
func seek(ranges []soapdec.LeafRange, from, off int) int {
	if from >= len(ranges) || off < int(ranges[from].End) {
		return from
	}
	// ranges[lo] ends at or before off; ranges[hi], if any, past it.
	lo, step := from, 1
	for lo+step < len(ranges) && int(ranges[lo+step].End) <= off {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(ranges))
	for lo+1 < hi {
		m := int(uint(lo+hi) >> 1)
		if int(ranges[m].End) <= off {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// mismatch returns the index of the first byte at which a and b, of
// equal length, differ, or that length when they are equal. Equal
// stretches go by a block at a time through the runtime's vectorized
// compare; the block holding a difference is then searched by words.
func mismatch(a, b []byte) int {
	const block = 256
	b = b[:len(a)]
	i := 0
	for ; i+block <= len(a); i += block {
		if !bytes.Equal(a[i:i+block], b[i:i+block]) {
			break
		}
	}
	for ; i+8 <= len(a); i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// relexRegion re-parses one variable region: VALUE</tag>␣␣… — the value
// text up to the first '<', the expected closing tag, then whitespace —
// and stores the value in leaf. It reports whether the region was that.
func relexRegion(msg *wire.Message, leaf int, seg []byte) bool {
	lt := bytes.IndexByte(seg, '<')
	if lt < 0 {
		return false // no closing tag in the region
	}
	tag, rest := msg.LeafTag(leaf), seg[lt+1:]
	if len(rest) < len(tag)+2 || rest[0] != '/' || string(rest[1:1+len(tag)]) != tag || rest[1+len(tag)] != '>' {
		return false // the closing tag changed
	}
	for _, b := range rest[len(tag)+2:] {
		if !xsdlex.IsSpace(b) {
			return false // the padding is not white space
		}
	}
	return soapdec.SetLeafBytes(msg, leaf, seg[:lt]) == nil
}
