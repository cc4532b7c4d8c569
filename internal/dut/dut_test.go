package dut

import (
	"testing"
	"unsafe"

	"bsoap/internal/chunk"
	"bsoap/internal/wire"
)

// buildTemplateLike appends n fixed-width double entries into one chunk,
// mimicking first-time serialization: <v>VAL</v> spans with width w.
func buildTemplateLike(t *testing.T, n, w int) (*chunk.Buffer, *Table) {
	t.Helper()
	b := chunk.New(chunk.Config{ChunkSize: 4096, TrailingSlack: 256})
	tab := NewTable(n)
	k, _ := tab.AddKind(wire.TDouble, []byte("</v>"))
	for i := 0; i < n; i++ {
		b.Append([]byte("<v>"))
		c, off := b.Reserve(w + len("</v>"))
		for j := 0; j < w; j++ {
			c.Bytes()[off+j] = '1'
		}
		copy(c.Bytes()[off+w:], "</v>")
		if !tab.Append(c, off, w, w, k) {
			t.Fatal("Append refused an entry")
		}
	}
	tab.CheckInvariants()
	return b, &tab
}

// TestEntryLayout pins the entry at 16 bytes: three uint32 byte counts
// and two uint16 ids.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want 16", got)
	}
}

func TestAppendMaintainsChunkRanges(t *testing.T) {
	_, tab := buildTemplateLike(t, 10, 5)
	if tab.Len() != 10 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if lo, hi := tab.Range(tab.At(0)); lo != 0 || hi != 10 {
		t.Fatalf("chunk range [%d,%d)", lo, hi)
	}
}

func TestEntryGeometry(t *testing.T) {
	tab := Table{kinds: []kind{{typ: wire.TDouble, closeTag: "</v>"}}}
	e := &Entry{off: 100, serLen: 3, width: 10}
	if tab.SpanEnd(e) != 100+10+4 {
		t.Fatalf("SpanEnd = %d", tab.SpanEnd(e))
	}
	if e.Width()-e.SerLen() != 7 {
		t.Fatalf("pad = %d", e.Width()-e.SerLen())
	}
}

func TestFixupShift(t *testing.T) {
	b, tab := buildTemplateLike(t, 5, 4)
	c := b.Head()
	// Grow entry 2: the engine's convention is to open the gap at the
	// entry's SpanEnd, so the growing entry itself never moves.
	e2 := tab.At(2)
	pos := tab.SpanEnd(e2)
	if !c.InsertGap(pos, 3) {
		t.Fatal("gap refused")
	}
	if !tab.Grow(2, 3) {
		t.Fatal("Grow refused")
	}
	// Rewrite entry 2's region: a 7-char value plus closing tag.
	copy(c.Bytes()[e2.Off():], "2222222</v>")
	e2.SetSerLen(7)
	tab.CheckInvariants()
	for i := 0; i < 5; i++ {
		e := tab.At(i)
		wantOff := 3 + i*11 // len("<v>") + i*span
		if i > 2 {
			wantOff += 3
		}
		if e.Off() != wantOff {
			t.Errorf("entry %d Off = %d, want %d", i, e.Off(), wantOff)
		}
	}
}

func TestFixupShiftOnlyAffectsSameChunk(t *testing.T) {
	b := chunk.New(chunk.Config{ChunkSize: 64, TrailingSlack: 8})
	tab := NewTable(2)
	k, _ := tab.AddKind(wire.TDouble, []byte("</v>"))
	// Two entries in two separate chunks.
	for i := 0; i < 2; i++ {
		if i > 0 {
			b.SplitChunk(b.Head(), b.Head().Len()) // start a second chunk
		}
		b.Append([]byte("<v>"))
		c, off := b.Reserve(4 + 4)
		copy(c.Bytes()[off:], "1234</v>")
		tab.Append(c, off, 4, 4, k)
	}
	second := tab.At(1)
	before := second.Off()
	first := tab.At(0)
	firstOff := first.Off()
	if !tab.Chunk(first).InsertGap(tab.SpanEnd(first), 2) {
		t.Fatal("gap refused")
	}
	tab.Grow(0, 2)
	if second.Off() != before {
		t.Fatal("entry in other chunk moved")
	}
	if first.Off() != firstOff {
		t.Fatalf("growing entry moved: Off = %d", first.Off())
	}
}

func TestFixupSplit(t *testing.T) {
	b, tab := buildTemplateLike(t, 6, 4)
	c := b.Head()
	// Split at the value start of entry 3.
	at := tab.At(3).Off()
	nc := b.SplitChunk(c, at)
	if !tab.FixupSplit(0, nc, at) {
		t.Fatal("FixupSplit refused")
	}
	tab.CheckInvariants()

	if lo, hi := chunkRange(tab, c); lo != 0 || hi != 3 {
		t.Fatalf("old chunk range [%d,%d)", lo, hi)
	}
	if lo, hi := chunkRange(tab, nc); lo != 3 || hi != 6 {
		t.Fatalf("new chunk range [%d,%d)", lo, hi)
	}
	for i := 3; i < 6; i++ {
		e := tab.At(i)
		if tab.Chunk(e) != nc {
			t.Fatalf("entry %d not re-pointed", i)
		}
	}
	if tab.At(3).Off() != 0 {
		t.Fatalf("entry 3 Off = %d, want 0", tab.At(3).Off())
	}
	// Values must still read back.
	e := tab.At(3)
	if got := string(tab.Chunk(e).Bytes()[e.Off() : e.Off()+e.SerLen()]); got != "1111" {
		t.Fatalf("entry 3 value %q", got)
	}
}

func TestFixupSplitAllEntriesStay(t *testing.T) {
	b, tab := buildTemplateLike(t, 4, 4)
	c := b.Head()
	// Split after the last entry's span: no entries move.
	at := tab.SpanEnd(tab.At(3))
	nc := b.SplitChunk(c, at)
	tab.FixupSplit(0, nc, at)
	if lo, hi := chunkRange(tab, c); lo != 0 || hi != 4 {
		t.Fatalf("old chunk range [%d,%d)", lo, hi)
	}
	if lo, hi := chunkRange(tab, nc); lo != 0 || hi != 0 {
		t.Fatalf("new chunk range [%d,%d), want empty", lo, hi)
	}
	tab.CheckInvariants()
}

func TestFixupSplitAllEntriesMove(t *testing.T) {
	b, tab := buildTemplateLike(t, 4, 4)
	c := b.Head()
	nc := b.SplitChunk(c, 0)
	tab.FixupSplit(0, nc, 0)
	if lo, hi := chunkRange(tab, nc); lo != 0 || hi != 4 {
		t.Fatalf("new chunk range [%d,%d)", lo, hi)
	}
	if lo, hi := chunkRange(tab, c); lo != 0 || hi != 0 {
		t.Fatalf("old chunk range [%d,%d), want empty", lo, hi)
	}
	tab.CheckInvariants()
}

func TestNonContiguousAppendPanics(t *testing.T) {
	b, tab := buildTemplateLike(t, 2, 4)
	c := b.Head()
	// One entry in a chunk after c, then one back in c.
	nc := b.SplitChunk(c, c.Len())
	b.Append([]byte("1</v>"))
	if !tab.Append(nc, 0, 1, 1, 0) {
		t.Fatal("Append refused an entry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append accepted non-contiguous entry")
		}
	}()
	tab.Append(c, 3, 1, 1, 0)
}

func TestCheckInvariantsCatchesOverlap(t *testing.T) {
	_, tab := buildTemplateLike(t, 3, 4)
	tab.At(1).off = tab.At(0).off // force overlap
	defer func() {
		if recover() == nil {
			t.Fatal("overlap not caught")
		}
	}()
	tab.CheckInvariants()
}

func TestCheckInvariantsCatchesWidthViolation(t *testing.T) {
	_, tab := buildTemplateLike(t, 1, 4)
	tab.At(0).serLen = 10
	defer func() {
		if recover() == nil {
			t.Fatal("SerLen > Width not caught")
		}
	}()
	tab.CheckInvariants()
}

func TestFirstOffAtOrAfter(t *testing.T) {
	b, tab := buildTemplateLike(t, 4, 4)
	c := b.Head()
	// Entry spans start at 3, 14, 25, 36 (len("<v>") + i*11).
	if off, ok := tab.FirstOffAtOrAfter(tab.At(0), 0); !ok || off != 3 {
		t.Fatalf("at 0: %d, %v", off, ok)
	}
	if off, ok := tab.FirstOffAtOrAfter(tab.At(0), 15); !ok || off != 25 {
		t.Fatalf("at 15: %d, %v", off, ok)
	}
	if _, ok := tab.FirstOffAtOrAfter(tab.At(3), 1000); ok {
		t.Fatal("past-end lookup succeeded")
	}
	// After a split, a lookup searches only the entry's own chunk.
	nc := b.SplitChunk(c, tab.At(2).Off())
	tab.FixupSplit(0, nc, tab.At(2).Off())
	if _, ok := tab.FirstOffAtOrAfter(tab.At(0), 15); ok {
		t.Fatal("lookup crossed into the next chunk")
	}
	if off, ok := tab.FirstOffAtOrAfter(tab.At(3), 1); !ok || off != 11 {
		t.Fatalf("in the new chunk at 1: %d, %v", off, ok)
	}
}

// chunkRange returns the range of the entries in chunk c, [0,0) when it
// holds none.
func chunkRange(tab *Table, c *chunk.Chunk) (lo, hi int) {
	for i := 0; i < tab.Len(); i++ {
		if e := tab.At(i); tab.Chunk(e) == c {
			return tab.Range(e)
		}
	}
	return 0, 0
}
