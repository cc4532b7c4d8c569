// Package diffdeser implements differential deserialization, the
// server-side mirror of bSOAP proposed in the paper's future work (§6):
// storing messages at the SOAP server suggests the structure of future
// arrivals, letting the server avoid complete parsing.
//
// The deserializer keeps, per operation, the raw bytes and parse result
// of the last message, plus each scalar leaf's variable byte region
// (value + floating closing tag + padding, recorded by soapdec). A new
// message of identical length is first compared with the stored bytes,
// a block at a time, and only then lexed: every differing byte must lie
// in some leaf's region, and just those regions are re-lexed — a handful
// of bytes each — instead of re-running the full parser. A fast decode
// so costs one memory compare of the body plus work proportional to the
// leaves that changed, and allocates nothing. A difference anywhere else
// (markup), or a region that does not lex, falls back to a full parse
// that also refreshes the template.
package diffdeser

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"

	"bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Info reports how one Decode was served.
type Info struct {
	// FullParse is set when the whole envelope was parsed.
	FullParse bool
	// ValuesReparsed counts leaf regions re-lexed on the fast path.
	ValuesReparsed int
	// Reason says why a full parse happened (ReasonNone on the fast path).
	Reason Reason
}

// Reason classifies why a Decode ran the full parse. The set is closed,
// so a reason can label a metric: what a region's lexer said about a
// peer's bytes stays in the error, and never becomes a label.
type Reason uint8

const (
	// ReasonNone: the fast path served the decode.
	ReasonNone Reason = iota
	// ReasonNoTemplate: nothing is retained for the key.
	ReasonNoTemplate
	// ReasonLength: no retained body has this body's length.
	ReasonLength
	// ReasonMarkup: a byte differs outside every leaf's region.
	ReasonMarkup
	// ReasonValue: a changed region is not a value of its leaf's type,
	// the leaf's closing tag and white space.
	ReasonValue
	// ReasonDropped: a region failed after others had been set, and the
	// retained bytes would not lex to undo them: the template was dropped.
	ReasonDropped
	// NumReasons sizes an array indexed by Reason.
	NumReasons
)

// String returns the reason as a metric label value ("" for ReasonNone).
func (r Reason) String() string {
	return [NumReasons]string{"", "no_template", "length", "markup", "value", "dropped"}[r]
}

// template is the stored last message for one operation.
type template struct {
	body   []byte
	msg    *wire.Message
	ranges []soapdec.LeafRange
}

// MaxTemplatesPerKey bounds how many structurally distinct message
// templates are retained per key — the server-side analogue of the
// paper's "multiple templates per remote service" future work, letting
// a client that alternates between a few message shapes keep hitting
// the fast path.
const MaxTemplatesPerKey = 4

// DefaultMaxKeys bounds how many distinct operation keys a deserializer
// retains (each holding up to MaxTemplatesPerKey templates). Keys are
// evicted least-recently-used, mirroring core.Store's per-op signature
// LRU, so a peer cycling through many operations cannot grow the
// deserializer without bound.
const DefaultMaxKeys = 64

// Deserializer is the stateful server-side decoder. Not safe for
// concurrent use; guard it per connection or with the server's dispatch
// lock.
type Deserializer struct {
	lookup    soapdec.Lookup
	keys      *replica.LRU[string, *keyTemplates] // the tree's one LRU
	maxKeys   int
	evictions int64
	size      int64 // resident bytes, maintained incrementally
}

// keyTemplates is one operation key's template list, LRU front first.
type keyTemplates struct {
	list []*template
}

// New returns a deserializer resolving operations through lookup, with
// the key count bounded at DefaultMaxKeys.
func New(lookup soapdec.Lookup) *Deserializer {
	return NewBounded(lookup, DefaultMaxKeys)
}

// NewBounded returns a deserializer retaining at most maxKeys operation
// keys (values < 1 mean DefaultMaxKeys).
func NewBounded(lookup soapdec.Lookup, maxKeys int) *Deserializer {
	if maxKeys < 1 {
		maxKeys = DefaultMaxKeys
	}
	return &Deserializer{
		lookup:  lookup,
		keys:    replica.NewLRU[string, *keyTemplates](),
		maxKeys: maxKeys,
	}
}

// Evictions reports how many operation keys the LRU bound has evicted.
func (d *Deserializer) Evictions() int64 { return d.evictions }

// SizeBytes reports the deserializer's resident cost: stored message
// bodies plus a fixed estimate per template for the parsed message and
// its leaf ranges. Maintained incrementally, so reading it is free —
// the server runtime feeds it to the replica registry's byte budget.
func (d *Deserializer) SizeBytes() int { return int(d.size) }

// templateCost estimates one template's resident bytes: the body copy,
// the parsed message's leaf storage, and the range table.
func templateCost(t *template) int64 {
	const perRange = 16 // two ints per soapdec.LeafRange
	const fixed = 256   // template struct, message header
	return int64(cap(t.body)) + int64(len(t.ranges))*perRange + fixed
}

// noteKey moves key to the front of the key LRU, inserting it when new
// and evicting the least recently used key (and its templates) beyond
// maxKeys.
func (d *Deserializer) noteKey(key string, kt *keyTemplates) {
	if _, ok := d.keys.Get(key); ok {
		return
	}
	d.keys.PushFront(key, kt)
	if d.keys.Len() > d.maxKeys {
		if _, victim, ok := d.keys.RemoveTail(); ok {
			for _, t := range victim.list {
				d.size -= templateCost(t)
			}
			d.evictions++
		}
	}
}

// Decode parses body, differentially when a previous message for key
// had identical framing. The returned message is owned by the
// deserializer and valid until the next Decode with the same key.
func (d *Deserializer) Decode(key string, body []byte) (*wire.Message, Info, error) {
	kt, ok := d.keys.Peek(key)
	if !ok || len(kt.list) == 0 {
		return d.fullParse(key, body, ReasonNoTemplate)
	}
	reason := ReasonLength
	for idx := 0; idx < len(kt.list); idx++ {
		tpl := kt.list[idx]
		if len(body) != len(tpl.body) {
			continue
		}
		n, why, intact := tpl.tryFast(body)
		if why != ReasonNone {
			reason = why
			if !intact {
				reason = ReasonDropped
				d.size -= templateCost(tpl)
				kt.list = slices.Delete(kt.list, idx, idx+1)
				idx--
			}
			continue
		}
		// Move the hit to the LRU front (template within the key, and
		// the key within the deserializer).
		if idx != 0 {
			copy(kt.list[1:idx+1], kt.list[0:idx])
			kt.list[0] = tpl
		}
		d.keys.Touch(key)
		return tpl.msg, Info{ValuesReparsed: n}, nil
	}
	return d.fullParse(key, body, reason)
}

// tryFast attempts the differential decode of body (already known to be
// as long as the template) and reports the regions re-lexed, or why the
// template does not fit. Values are set as their regions lex; the
// retained bytes are overwritten only once the whole body has validated,
// so a body that fails part-way is undone from them and the template
// stays as it was for the next candidate or the next arrival. intact is
// false in the one case the undo cannot cover — a retained region that a
// full parse accepted in a form the region lexer does not (an entity in a
// number, a comment) — and the caller must then drop the template.
func (t *template) tryFast(body []byte) (n int, why Reason, intact bool) {
	n, lo, hi, why := t.relexChanged(body, body, math.MaxInt)
	if why != ReasonNone {
		restored, _, _, _ := t.relexChanged(body, t.body, n)
		return 0, why, restored == n
	}
	// Adopt the new bytes as the template for the next arrival: outside
	// [lo, hi) the two bodies are equal.
	copy(t.body[lo:hi], body[lo:hi])
	return n, ReasonNone, true
}

// relexChanged walks the bytes at which body differs from the retained
// t.body. Each difference must fall inside a leaf's variable region —
// anything else is changed markup — and that leaf is set from the
// region's text in src: body itself to decode, t.body to undo a decode
// that set limit leaves before failing (the walk depends only on the two
// bodies, so it revisits the same regions in the same order). It
// returns the regions set, the span [lo, hi) of body that covers every
// difference seen, and why it stopped early (ReasonNone when it did not).
//
// The cost is one block-wise comparison of the bodies plus the lexing of
// the regions that differ; nothing is allocated unless a string leaf
// changed or the walk fails.
func (t *template) relexChanged(body, src []byte, limit int) (n, lo, hi int, why Reason) {
	old := t.body
	off, next := 0, 0
	for n < limit {
		off += mismatch(body[off:], old[off:])
		if off == len(body) {
			break
		}
		// Differences mostly come in leaf order, so try the region after
		// the last one hit before searching.
		i := next
		if i >= len(t.ranges) || off >= t.ranges[i].End {
			i = sort.Search(len(t.ranges), func(k int) bool { return t.ranges[k].End > off })
		}
		if i == len(t.ranges) || off < t.ranges[i].Start {
			return n, lo, hi, ReasonMarkup
		}
		r := t.ranges[i]
		if !relexRegion(t.msg, i, src[r.Start:r.End]) {
			return n, lo, hi, ReasonValue
		}
		if n == 0 {
			lo = off
		}
		n++
		off, next, hi = r.End, i+1, r.End
	}
	return n, lo, hi, ReasonNone
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

// fullParse runs the complete schema-driven parse and refreshes the
// template for key.
func (d *Deserializer) fullParse(key string, body []byte, reason Reason) (*wire.Message, Info, error) {
	res, err := soapdec.Decode(body, d.lookup, true)
	if err != nil {
		return nil, Info{FullParse: true, Reason: reason}, err
	}
	tpl := &template{
		body:   append([]byte(nil), body...),
		msg:    res.Msg,
		ranges: res.Ranges,
	}
	kt, ok := d.keys.Peek(key)
	if !ok {
		kt = &keyTemplates{}
	}
	kt.list = append([]*template{tpl}, kt.list...)
	d.size += templateCost(tpl)
	if len(kt.list) > MaxTemplatesPerKey {
		for _, dropped := range kt.list[MaxTemplatesPerKey:] {
			d.size -= templateCost(dropped)
		}
		kt.list = kt.list[:MaxTemplatesPerKey]
	}
	d.noteKey(key, kt)
	return res.Msg, Info{FullParse: true, Reason: reason}, nil
}

// KeyCount reports how many operation keys are resident.
func (d *Deserializer) KeyCount() int { return d.keys.Len() }

// TemplateCount reports how many templates are resident (all keys).
func (d *Deserializer) TemplateCount() int {
	n := 0
	d.keys.FromFront(func(_ string, kt *keyTemplates) bool {
		n += len(kt.list)
		return true
	})
	return n
}
