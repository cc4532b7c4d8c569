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
// Two owners exist. A request that names its template (a delta sync or
// patch frame) is decoded against the patch base the serverpool keeper
// already holds for that template id, through DecodeRegions — compared
// only where the frame's regions say the body changed. A request that
// names nothing is decoded by a Deserializer, which keeps its own copy of
// each body and picks among a key's few by equal length.
package diffdeser

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"bsoap/internal/replica"
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
	// Refused is set on a full parse that kept nothing: the key's
	// templates were full and the doorkeeper had not refused the body's
	// length recently (see Deserializer).
	Refused bool
}

// Reason classifies why a decode ran the full parse. The set is closed,
// so a reason can label a metric: what a region's lexer said about a
// peer's bytes stays in the error, and never becomes a label.
type Reason uint8

const (
	// ReasonNone: the fast path served the decode.
	ReasonNone Reason = iota
	// ReasonNoTemplate: nothing is retained for the key or template id.
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
// bytes the regions replaced, region after region. Either src is a held
// body with a verified patch frame's regions already copied in, old what
// they overwrote, or src is a new full body and the one region spans it,
// old the held bytes. Only the leaves whose bytes differ are re-lexed,
// from src. If the template has no message yet, old is not as long as
// the regions (a full body of another length), a difference lies outside
// every leaf's region or a changed region does not lex, src is parsed in
// full instead and the template refreshed from it. The returned message
// is owned by the template and valid until its next decode.
//
// After an error the message may hold values no body says: the caller
// must give the template up.
func (t *Template) DecodeRegions(src []byte, regions []wire.DeltaRegion, old []byte, lookup soapdec.Lookup) (*wire.Message, Info, error) {
	why := ReasonNoTemplate
	if t.msg != nil {
		why = ReasonLength
		if regionBytes(regions) == len(old) {
			var n int
			if n, _, _, why = t.relexChanged(regions, old, src, math.MaxInt); why == ReasonNone {
				return t.msg, Info{ValuesReparsed: n}, nil
			}
		}
	}
	info := Info{FullParse: true, Reason: why}
	if err := t.parse(src, lookup); err != nil {
		return nil, info, err
	}
	return t.msg, info, nil
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

// owned is a Template with its own copy of the body: what a Deserializer
// retains, several per operation key.
type owned struct {
	body []byte
	Template
}

// MaxTemplatesPerKey bounds how many structurally distinct message
// templates are retained per key — the server-side analogue of the
// paper's "multiple templates per remote service" future work, letting
// a client that alternates between a few message shapes keep hitting
// the fast path.
const MaxTemplatesPerKey = 4

// defaultMaxKeys bounds how many distinct operation keys a deserializer
// retains (each holding up to MaxTemplatesPerKey templates). Keys are
// evicted least-recently-used, mirroring core.Store's per-op signature
// LRU, so a peer cycling through many operations cannot grow the
// deserializer without bound.
const defaultMaxKeys = 64

// Deserializer decodes requests that name no template: it keeps, per
// operation key, the last few bodies with their templates and decodes a
// new body against the first of them with the same length.
//
// A key whose MaxTemplatesPerKey templates are full keeps a body of a new
// length only when it refused that length within its last
// MaxTemplatesPerKey refusals (the client pool's doorkeeper, keyed by
// length): any other is decoded without ranges and without a copy, and
// the templates in use stay. Not safe for concurrent use; guard it per
// connection or with the server's dispatch lock.
type Deserializer struct {
	lookup    soapdec.Lookup
	keys      *replica.LRU[string, *keyTemplates] // the tree's one LRU
	maxKeys   int
	evictions int64
	size      int64 // resident bytes, maintained incrementally
}

// keyTemplates is one operation key's template list, LRU front first,
// and its doorkeeper: the body lengths of its last MaxTemplatesPerKey
// refusals (0 is an empty place), next the place the next one takes.
// A refused body decodes into scratch, so a key that keeps refusing
// reuses one message instead of making one per request; like a
// template's message, it is not charged to SizeBytes.
type keyTemplates struct {
	list    []*owned
	refused [MaxTemplatesPerKey]int
	next    int
	scratch soapdec.Scratch
}

// admit reports whether the full key keeps a body of length n: only one
// whose length it refused within its last MaxTemplatesPerKey refusals. A
// length admitted leaves the ring; a length refused takes the oldest
// place in it.
func (kt *keyTemplates) admit(n int) bool {
	for i, x := range kt.refused {
		if x == n {
			kt.refused[i] = 0
			return true
		}
	}
	kt.refused[kt.next] = n
	kt.next = (kt.next + 1) % MaxTemplatesPerKey
	return false
}

// New returns a deserializer resolving operations through lookup, with
// the key count bounded at defaultMaxKeys.
func New(lookup soapdec.Lookup) *Deserializer {
	return NewBounded(lookup, defaultMaxKeys)
}

// NewBounded returns a deserializer retaining at most maxKeys operation
// keys (values < 1 mean defaultMaxKeys).
func NewBounded(lookup soapdec.Lookup, maxKeys int) *Deserializer {
	if maxKeys < 1 {
		maxKeys = defaultMaxKeys
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
// bodies plus each template's own estimate. Maintained incrementally, so
// reading it is free — the server runtime feeds it to the replica
// registry's byte budget.
func (d *Deserializer) SizeBytes() int { return int(d.size) }

// templateCost is one retained template's resident bytes: its body's
// capacity and the template's own estimate.
func templateCost(o *owned) int64 {
	return int64(cap(o.body) + o.SizeBytes())
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
			for _, o := range victim.list {
				d.size -= templateCost(o)
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
		o := kt.list[idx]
		if len(body) != len(o.body) {
			continue
		}
		n, why, intact := o.tryFast(body)
		if why != ReasonNone {
			reason = why
			if !intact {
				reason = ReasonDropped
				d.size -= templateCost(o)
				kt.list = slices.Delete(kt.list, idx, idx+1)
				idx--
			}
			continue
		}
		// Move the hit to the LRU front (template within the key, and
		// the key within the deserializer).
		if idx != 0 {
			copy(kt.list[1:idx+1], kt.list[0:idx])
			kt.list[0] = o
		}
		d.keys.Touch(key)
		return o.msg, Info{ValuesReparsed: n}, nil
	}
	return d.fullParse(key, body, reason)
}

// tryFast attempts the differential decode of body (already known to be
// as long as the retained one) and reports the regions re-lexed, or why
// the template does not fit. Values are set as their regions lex; the
// retained bytes are overwritten only once the whole body has validated,
// so a body that fails part-way is undone from them and the template
// stays as it was for the next candidate or the next arrival. intact is
// false in the one case the undo cannot cover — a retained region that a
// full parse accepted in a form the region lexer does not (an entity in a
// number, a comment) — and the caller must then drop the template.
func (o *owned) tryFast(body []byte) (n int, why Reason, intact bool) {
	whole := [1]wire.DeltaRegion{{Bytes: body}}
	n, lo, hi, why := o.relexChanged(whole[:], o.body, body, math.MaxInt)
	if why != ReasonNone {
		restored, _, _, _ := o.relexChanged(whole[:], o.body, o.body, n)
		return 0, why, restored == n
	}
	// Adopt the new bytes as the template for the next arrival: outside
	// [lo, hi) the two bodies are equal.
	copy(o.body[lo:hi], body[lo:hi])
	return n, ReasonNone, true
}

// relexChanged walks the bytes at which the regions differ from old, the
// bytes they replaced (region after region, so the two are as long).
// Each difference must fall inside a leaf's variable region — anything
// else is changed markup — and that leaf is set from its region's text in
// src: the new body to decode, or the retained one to undo a decode that
// set limit leaves before failing (the walk depends only on the regions
// and old, so it revisits the same leaves in the same order). A leaf is
// set once, from its whole text, however many regions touch it. It
// returns the leaves set, the span [lo, hi) of the body that covers every
// difference seen, and why it stopped early (ReasonNone when it did not).
//
// The cost is one block-wise comparison of the regions with old plus the
// lexing of the leaves that differ; nothing is allocated unless a string
// leaf changed or the walk fails.
func (t *Template) relexChanged(regions []wire.DeltaRegion, old, src []byte, limit int) (n, lo, hi int, why Reason) {
	next := 0
	for g := range regions {
		cur, at := regions[g].Bytes, regions[g].Off
		prev := old[:len(cur)]
		old = old[len(cur):]
		// Bytes before hi belong to a leaf that is already set.
		for j := max(hi-at, 0); n < limit && j < len(cur); {
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

// fullParse runs the complete schema-driven parse and refreshes the
// template for key — unless the key is full and the body is a length
// none of its templates has (ReasonLength) that the doorkeeper refuses:
// then the parse records no ranges, copies nothing and decodes into the
// key's scratch message, and the key keeps the templates it has.
func (d *Deserializer) fullParse(key string, body []byte, reason Reason) (*wire.Message, Info, error) {
	kt, ok := d.keys.Peek(key)
	if ok && reason == ReasonLength && len(kt.list) >= MaxTemplatesPerKey && !kt.admit(len(body)) {
		msg, err := kt.scratch.Decode(body, d.lookup)
		if err != nil {
			return nil, Info{FullParse: true, Reason: reason}, err
		}
		d.keys.Touch(key)
		return msg, Info{FullParse: true, Reason: reason, Refused: true}, nil
	}
	o := &owned{}
	if err := o.parse(body, d.lookup); err != nil {
		return nil, Info{FullParse: true, Reason: reason}, err
	}
	o.body = append([]byte(nil), body...)
	if !ok {
		kt = &keyTemplates{}
	}
	kt.list = append([]*owned{o}, kt.list...)
	d.size += templateCost(o)
	if len(kt.list) > MaxTemplatesPerKey {
		for _, dropped := range kt.list[MaxTemplatesPerKey:] {
			d.size -= templateCost(dropped)
		}
		kt.list = kt.list[:MaxTemplatesPerKey]
	}
	d.noteKey(key, kt)
	return o.msg, Info{FullParse: true, Reason: reason}, nil
}
