// Package dut implements the Data Update Tracking table (paper §3.1).
// Each entry associates one in-memory scalar leaf with its location in
// the serialized message template and carries the paper's five fields:
//
//   - a pointer to type information, including the maximum serialized size
//     (here a kind: an index into the table's few distinct pairs of
//     scalar type and closing tag)
//   - the dirty bit (held on the wire.Message, whose Set accessors
//     maintain it — the table and the message's leaves are index-aligned,
//     entry i ↔ leaf i)
//   - a pointer (chunk, offset) to the value's current location in the
//     serialized message (the chunk as an id in the table's chunk table)
//   - the serialized length: characters currently used by the value
//   - the field width: characters allocated to the value (width ≥ length)
//
// Because entries point directly into the serialized form, finding a
// value's bytes is O(1); shifting and splitting fix the affected entries
// through the per-chunk entry ranges maintained here.
//
// An entry is 16 bytes: three uint32 byte counts and two uint16 ids. Every
// method that produces a field value reports whether it fits; a template
// one of whose fields does not fit cannot be represented and is not kept.
package dut

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"bsoap/internal/chunk"
	"bsoap/internal/wire"
)

// Entry tracks one scalar leaf of the message inside the template.
//
// The bytes owned by an entry are laid out as
//
//	VALUE</tag>␣␣␣…␣
//	^Off  ^Off+SerLen        ^Off+Width+len(CloseTag)
//
// the value, its floating closing tag, and whitespace padding filling the
// rest of the field width (stuffing). The opening tag precedes Off and is
// never rewritten. The entry's chunk, type and closing tag are read
// through its Table.
type Entry struct {
	off    uint32 // first byte of the value in its chunk
	width  uint32 // allocated field width; always ≥ serLen
	serLen uint32 // characters of the most recently written value
	chunk  uint16 // index into Table.chunks
	kind   uint16 // index into Table.kinds
}

// Off reports the offset of the value's first byte in its chunk.
func (e *Entry) Off() int { return int(e.off) }

// Width reports the allocated field width.
func (e *Entry) Width() int { return int(e.width) }

// SerLen reports the character count of the most recently written value.
func (e *Entry) SerLen() int { return int(e.serLen) }

// kind is one distinct pair of scalar type and closing tag: what every
// leaf of one field of an array's items, say, has in common.
type kind struct {
	typ      *wire.Type
	closeTag string // the pre-rendered closing tag, "</item>"
}

// chunkRef is one chunk of the template's buffer that holds entries, with
// the half-open range of their indexes, so that offset fix-ups after a
// shift or split touch only that chunk's entries.
type chunkRef struct {
	c      *chunk.Chunk
	lo, hi int
}

// Table is the ordered collection of entries for one template. Entry i
// corresponds to message leaf i; entries appear in document order, and
// the entries residing in one chunk form a contiguous index range. A
// chunk's id is its index in the table's chunk table: ids are handed out
// as chunks first hold an entry and never reused, so a split numbers the
// chunk it creates and renumbers nothing.
type Table struct {
	entries []Entry
	kinds   []kind
	chunks  []chunkRef
}

// fits reports whether a byte count or offset fits an entry's uint32.
func fits(v int) bool { return v >= 0 && v <= math.MaxUint32 }

// NewTable returns an empty table with room for n entries.
func NewTable(n int) Table {
	return Table{entries: make([]Entry, 0, n)}
}

// AddKind returns the kind of the scalar type typ closed by closeTag,
// adding it when new; ok is false when the table has no id left for it.
// The template calls it once per emit step, not per leaf; a table holds
// a handful of kinds, so the search is a scan.
func (t *Table) AddKind(typ *wire.Type, closeTag string) (id int, ok bool) {
	for i := len(t.kinds) - 1; i >= 0; i-- {
		if k := &t.kinds[i]; k.typ == typ && k.closeTag == closeTag {
			return i, true
		}
	}
	if len(t.kinds) > math.MaxUint16 {
		return 0, false
	}
	t.kinds = append(t.kinds, kind{typ: typ, closeTag: closeTag})
	return len(t.kinds) - 1, true
}

// SideBytes reports the resident bytes of the table apart from its
// entries: the kinds and the closing tags they hold, and the chunk
// table. Lengths are charged, not capacities.
func (t *Table) SideBytes() int {
	n := len(t.kinds)*int(unsafe.Sizeof(kind{})) + len(t.chunks)*int(unsafe.Sizeof(chunkRef{}))
	for i := range t.kinds {
		n += len(t.kinds[i].closeTag)
	}
	return n
}

// Append registers the next entry (for leaf Len()): a value of serLen
// bytes in a field of width bytes at offset off of chunk c, of kind id k
// (from AddKind). Entries arrive in document order, so c is the chunk of
// the entry before or one after it in the buffer. It reports false,
// appending nothing, when a field does not fit the entry's layout.
func (t *Table) Append(c *chunk.Chunk, off, serLen, width, k int) bool {
	if !fits(off) || !fits(width) || serLen > width {
		return false
	}
	i := len(t.entries)
	if n := len(t.chunks); n == 0 || t.chunks[n-1].c != c {
		if n > 0 && !follows(t.chunks[n-1].c, c) {
			panic(fmt.Sprintf("dut: non-contiguous append: entry %d is in a chunk before the entry ahead of it", i))
		}
		if n > math.MaxUint16 {
			return false
		}
		t.chunks = append(t.chunks, chunkRef{c: c, lo: i})
	}
	id := len(t.chunks) - 1
	t.entries = append(t.entries, Entry{
		off: uint32(off), width: uint32(width), serLen: uint32(serLen),
		chunk: uint16(id), kind: uint16(k),
	})
	t.chunks[id].hi = i + 1
	return true
}

// follows reports whether chunk c comes after p in their buffer. A build
// passes over only the chunks that hold no entry, a few at most.
func follows(p, c *chunk.Chunk) bool {
	for x := p.Next(); x != nil; x = x.Next() {
		if x == c {
			return true
		}
	}
	return false
}

// Len reports the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// At returns a pointer to entry i.
func (t *Table) At(i int) *Entry { return &t.entries[i] }

// Chunk returns the chunk holding e's value.
func (t *Table) Chunk(e *Entry) *chunk.Chunk { return t.chunks[e.chunk].c }

// Range returns the half-open range of indexes of the entries whose
// values live in e's chunk.
func (t *Table) Range(e *Entry) (lo, hi int) {
	r := &t.chunks[e.chunk]
	return r.lo, r.hi
}

// Kind returns e's scalar type descriptor (it holds the maximum width)
// and its pre-rendered closing tag ("</item>"), which is rewritten in
// place whenever the value's serialized length changes.
func (t *Table) Kind(e *Entry) (*wire.Type, string) {
	k := &t.kinds[e.kind]
	return k.typ, k.closeTag
}

// SpanEnd returns the offset one past e's padded span (value, closing
// tag, padding).
func (t *Table) SpanEnd(e *Entry) int {
	return int(e.off) + int(e.width) + len(t.kinds[e.kind].closeTag)
}

// SetSerLen records that e's value is now n bytes long (n ≤ Width).
func (e *Entry) SetSerLen(n int) {
	if n > int(e.width) {
		panic(fmt.Sprintf("dut: SetSerLen %d beyond width %d", n, e.width))
	}
	e.serLen = uint32(n)
}

// Grow widens entry i by delta bytes after its chunk opened a gap of
// delta bytes at the entry's span end (chunk.InsertGap): the entries
// after it in the chunk move right by delta. It reports false, changing
// nothing, when a widened field or a moved offset does not fit.
func (t *Table) Grow(i, delta int) bool {
	e := &t.entries[i]
	r := &t.chunks[e.chunk]
	if !fits(int(e.width)+delta) || !fits(r.c.Len()) {
		return false // the chunk's length bounds every moved offset
	}
	e.width += uint32(delta)
	for j := i + 1; j < r.hi; j++ {
		t.entries[j].off += uint32(delta)
	}
	return true
}

// Steal moves n bytes of padding from donor j to grower i, two entries of
// one chunk whose bytes between them the caller has moved n bytes toward
// the donor: the entries after the nearer of the two, up to and
// including the further, move by n. It reports false, changing nothing,
// when the grower's widened field does not fit.
func (t *Table) Steal(i, j, n int) bool {
	g, d := &t.entries[i], &t.entries[j]
	if !fits(int(g.width) + n) {
		return false
	}
	lo, hi, delta := i+1, j, uint32(n)
	if j < i {
		lo, hi, delta = j+1, i, -delta // wraps: subtracts n
	}
	for k := lo; k <= hi; k++ {
		t.entries[k].off += delta
	}
	d.width -= uint32(n)
	g.width += uint32(n)
	return true
}

// FixupSplit re-points the entries moved by Buffer.SplitChunk(c, at),
// where c is entry i's chunk, to the new chunk nc, adjusting their
// offsets and both chunks' entry ranges. Entries whose value begins at
// or after at belong to nc, which takes the next chunk id if any do. It
// reports false when entries move and the table has no chunk id left;
// the table is then unusable and must be dropped with its buffer.
func (t *Table) FixupSplit(i int, nc *chunk.Chunk, at int) bool {
	old := t.entries[i].chunk
	k := t.searchOff(&t.chunks[old], at)
	if k >= t.chunks[old].hi { // nothing moves
		return true
	}
	if len(t.chunks) > math.MaxUint16 {
		return false
	}
	id := uint16(len(t.chunks))
	t.chunks = append(t.chunks, chunkRef{c: nc, lo: k, hi: t.chunks[old].hi})
	t.chunks[old].hi = k
	for j := k; j < t.chunks[id].hi; j++ {
		t.entries[j].chunk = id
		t.entries[j].off -= uint32(at)
	}
	return true
}

// FirstOffAtOrAfter returns the offset of the first entry in e's chunk
// whose value starts at or after pos, if any. The template layer uses it
// to pick entry-aligned chunk split points.
func (t *Table) FirstOffAtOrAfter(e *Entry, pos int) (int, bool) {
	r := &t.chunks[e.chunk]
	if k := t.searchOff(r, pos); k < r.hi {
		return int(t.entries[k].off), true
	}
	return 0, false
}

// searchOff returns the index of the first entry in r whose offset is
// ≥ pos.
func (t *Table) searchOff(r *chunkRef, pos int) int {
	return r.lo + sort.Search(r.hi-r.lo, func(i int) bool {
		return int(t.entries[r.lo+i].off) >= pos
	})
}

// CheckInvariants validates entry ordering, chunk and kind ids, chunk
// ranges and span disjointness; tests call it after mutations. It panics
// on corruption.
func (t *Table) CheckInvariants() {
	for i := range t.entries {
		e := &t.entries[i]
		if e.serLen > e.width {
			panic(fmt.Sprintf("dut: entry %d SerLen %d > Width %d", i, e.serLen, e.width))
		}
		if int(e.kind) >= len(t.kinds) {
			panic(fmt.Sprintf("dut: entry %d kind %d outside the %d kinds", i, e.kind, len(t.kinds)))
		}
		if int(e.chunk) >= len(t.chunks) {
			panic(fmt.Sprintf("dut: entry %d chunk id %d outside the %d chunks", i, e.chunk, len(t.chunks)))
		}
		r := &t.chunks[e.chunk]
		if r.c.Cap() == 0 {
			panic(fmt.Sprintf("dut: entry %d chunk id %d names a released chunk", i, e.chunk))
		}
		if r.lo > i || i >= r.hi {
			panic(fmt.Sprintf("dut: entry %d outside its chunk's range [%d,%d)", i, r.lo, r.hi))
		}
		if t.SpanEnd(e) > r.c.Len() {
			panic(fmt.Sprintf("dut: entry %d span [%d,%d) outside chunk len %d",
				i, e.off, t.SpanEnd(e), r.c.Len()))
		}
		if i > 0 {
			p := &t.entries[i-1]
			if p.chunk == e.chunk && t.SpanEnd(p) > int(e.off) {
				panic(fmt.Sprintf("dut: entries %d and %d overlap", i-1, i))
			}
		}
	}
}
