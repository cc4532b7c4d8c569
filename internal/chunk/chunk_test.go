package chunk

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"testing"

	"bsoap/internal/membuf"
)

func TestEmptyBuffer(t *testing.T) {
	b := New(Config{})
	if b.Len() != 0 || b.NumChunks() != 0 || b.Head() != nil || b.tail != nil {
		t.Fatal("fresh buffer not empty")
	}
	if got := b.Bytes(); len(got) != 0 {
		t.Fatalf("Bytes() = %q", got)
	}
	if bufs := b.BuffersInto(new(net.Buffers)); len(bufs) != 0 {
		t.Fatalf("BuffersInto = %d entries", len(bufs))
	}
	b.CheckInvariants()
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ChunkSize != defaultChunkSize {
		t.Errorf("ChunkSize = %d", cfg.ChunkSize)
	}
	if cfg.SplitThreshold != 2*defaultChunkSize {
		t.Errorf("SplitThreshold = %d", cfg.SplitThreshold)
	}
	if cfg.TrailingSlack != defaultChunkSize/8 {
		t.Errorf("TrailingSlack = %d", cfg.TrailingSlack)
	}
	// Slack must always be smaller than the chunk size.
	cfg = Config{ChunkSize: 100, TrailingSlack: 1000}.withDefaults()
	if cfg.TrailingSlack >= cfg.ChunkSize {
		t.Errorf("slack %d not clamped below chunk size %d", cfg.TrailingSlack, cfg.ChunkSize)
	}
}

func TestAppendAndBytes(t *testing.T) {
	b := New(Config{ChunkSize: 64, TrailingSlack: 8})
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		s := strings.Repeat("x", i%13+1)
		b.AppendString(s)
		want.WriteString(s)
		b.CheckInvariants()
	}
	if got := b.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("contents diverge: %d vs %d bytes", len(got), want.Len())
	}
	if b.NumChunks() < 2 {
		t.Fatalf("expected multiple chunks for %d bytes with 64-byte chunks, got %d", b.Len(), b.NumChunks())
	}
}

func TestAppendIsContiguous(t *testing.T) {
	b := New(Config{ChunkSize: 64, TrailingSlack: 8})
	for i := 0; i < 200; i++ {
		pc, off := b.AppendString("0123456789")
		if off+10 > pc.Len() {
			t.Fatalf("append split across chunks at iteration %d", i)
		}
		if got := string(pc.Bytes()[off : off+10]); got != "0123456789" {
			t.Fatalf("appended bytes read back %q", got)
		}
	}
}

func TestTrailingSlackHonoured(t *testing.T) {
	b := New(Config{ChunkSize: 100, TrailingSlack: 20})
	for i := 0; i < 50; i++ {
		b.AppendString("0123456789")
	}
	for c := b.Head(); c != nil; c = c.Next() {
		if c.Next() != nil && c.Slack() < 20 {
			// Every non-tail chunk produced by plain appends must keep
			// its slack reservation.
			t.Fatalf("chunk slack %d below reservation 20", c.Slack())
		}
	}
}

func TestOversizedAppendGetsOwnChunk(t *testing.T) {
	b := New(Config{ChunkSize: 32, TrailingSlack: 4})
	big := strings.Repeat("A", 100)
	pc, off := b.AppendString(big)
	if off != 0 || pc.Len() != 100 {
		t.Fatalf("oversized append at off %d in chunk of len %d", off, pc.Len())
	}
	if got := string(b.Bytes()); got != big {
		t.Fatalf("contents %q", got)
	}
	b.CheckInvariants()
}

func TestInsertGapWithinSlack(t *testing.T) {
	b := New(Config{ChunkSize: 64, TrailingSlack: 16})
	pc, _ := b.AppendString("hello world")
	c := pc
	if !c.InsertGap(5, 3) {
		t.Fatal("InsertGap refused despite slack")
	}
	copy(c.Bytes()[5:8], "XYZ")
	if got := string(b.Bytes()); got != "helloXYZ world" {
		t.Fatalf("after gap: %q", got)
	}
	if b.Len() != 14 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.CheckInvariants()
}

func TestInsertGapAtEnds(t *testing.T) {
	b := New(Config{ChunkSize: 64, TrailingSlack: 16})
	pc, _ := b.AppendString("abc")
	c := pc
	if !c.InsertGap(0, 2) {
		t.Fatal("gap at head refused")
	}
	copy(c.Bytes()[0:2], ">>")
	if !c.InsertGap(c.Len(), 2) {
		t.Fatal("gap at tail refused")
	}
	copy(c.Bytes()[c.Len()-2:], "<<")
	if got := string(b.Bytes()); got != ">>abc<<" {
		t.Fatalf("got %q", got)
	}
}

func TestInsertGapZeroIsNoop(t *testing.T) {
	b := New(Config{ChunkSize: 64})
	pc, _ := b.AppendString("abc")
	if !pc.InsertGap(1, 0) {
		t.Fatal("zero gap refused")
	}
	if got := string(b.Bytes()); got != "abc" {
		t.Fatalf("got %q", got)
	}
}

func TestInsertGapInsufficientSlack(t *testing.T) {
	b := New(Config{ChunkSize: 16, TrailingSlack: 2})
	pc, _ := b.Reserve(14)
	copy(pc.Bytes(), "0123456789abcd")
	if pc.InsertGap(0, 10) {
		t.Fatal("InsertGap succeeded beyond capacity")
	}
	if got := string(b.Bytes()); got != "0123456789abcd" {
		t.Fatalf("failed gap mutated chunk: %q", got)
	}
}

func TestGrowChunkPreservesContentsAndIdentity(t *testing.T) {
	b := New(Config{ChunkSize: 16, TrailingSlack: 2})
	pc, _ := b.AppendString("0123456789abcd")
	c := pc
	b.GrowChunk(c, 100)
	if c.Cap() < c.Len()+100 {
		t.Fatalf("cap %d after grow", c.Cap())
	}
	if got := string(c.Bytes()); got != "0123456789abcd" {
		t.Fatalf("contents after grow: %q", got)
	}
	if !c.InsertGap(7, 50) {
		t.Fatal("gap refused after grow")
	}
	b.CheckInvariants()
}

func TestGrowChunkNoopWhenRoomy(t *testing.T) {
	b := New(Config{ChunkSize: 1024, TrailingSlack: 64})
	pc, _ := b.AppendString("small")
	before := pc.Cap()
	b.GrowChunk(pc, 4)
	if pc.Cap() != before {
		t.Fatal("GrowChunk reallocated unnecessarily")
	}
}

func TestSplitChunk(t *testing.T) {
	b := New(Config{ChunkSize: 64, TrailingSlack: 8})
	pc, _ := b.AppendString("0123456789")
	c := pc
	nc := b.SplitChunk(c, 4)
	if string(c.Bytes()) != "0123" || string(nc.Bytes()) != "456789" {
		t.Fatalf("split contents: %q | %q", c.Bytes(), nc.Bytes())
	}
	if c.Next() != nc || nc.prev != c {
		t.Fatal("split linkage wrong")
	}
	if got := string(b.Bytes()); got != "0123456789" {
		t.Fatalf("whole contents after split: %q", got)
	}
	if b.NumChunks() != 2 {
		t.Fatalf("NumChunks = %d", b.NumChunks())
	}
	b.CheckInvariants()
}

func TestSplitChunkInMiddleOfList(t *testing.T) {
	b := New(Config{ChunkSize: 8, TrailingSlack: 1})
	b.AppendString("aaaaaa")
	b.AppendString("bbbbbb")
	b.AppendString("cccccc")
	first := b.Head()
	b.SplitChunk(first, 3)
	if got := string(b.Bytes()); got != "aaaaaabbbbbbcccccc" {
		t.Fatalf("contents: %q", got)
	}
	b.CheckInvariants()
	// Tail must still be the original last chunk.
	if string(b.tail.Bytes()) != "cccccc" {
		t.Fatalf("tail contents: %q", b.tail.Bytes())
	}
}

func TestSplitAtEndsProducesEmptySide(t *testing.T) {
	b := New(Config{ChunkSize: 64})
	pc, _ := b.AppendString("abcdef")
	nc := b.SplitChunk(pc, 6)
	if nc.Len() != 0 || pc.Len() != 6 {
		t.Fatalf("split at end: %d | %d", pc.Len(), nc.Len())
	}
	b.CheckInvariants()
	if got := string(b.Bytes()); got != "abcdef" {
		t.Fatalf("contents: %q", got)
	}
}

func TestBuffersMatchesBytes(t *testing.T) {
	b := New(Config{ChunkSize: 32, TrailingSlack: 4})
	for i := 0; i < 30; i++ {
		b.AppendString("0123456789")
	}
	var joined []byte
	for _, seg := range b.BuffersInto(new(net.Buffers)) {
		joined = append(joined, seg...)
	}
	if !bytes.Equal(joined, b.Bytes()) {
		t.Fatal("BuffersInto and Bytes diverge")
	}
}

func TestReset(t *testing.T) {
	b := New(Config{ChunkSize: 32})
	b.AppendString("data")
	b.reset()
	if b.Len() != 0 || b.NumChunks() != 0 {
		t.Fatal("Reset left state behind")
	}
	b.AppendString("fresh")
	if got := string(b.Bytes()); got != "fresh" {
		t.Fatalf("after reset: %q", got)
	}
	b.CheckInvariants()
}

// TestRandomOperationSequence drives the buffer through random appends,
// gaps, grows and splits, mirroring every mutation against a flat byte
// slice, and checks the buffer always matches the model.
func TestRandomOperationSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		b := New(Config{ChunkSize: 64, TrailingSlack: 8})
		var model []byte
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0: // append
				n := rng.Intn(20) + 1
				p := make([]byte, n)
				for i := range p {
					p[i] = byte('a' + rng.Intn(26))
				}
				b.AppendString(string(p))
				model = append(model, p...)
			case 1: // gap in a random chunk
				c, base := randomChunk(rng, b)
				if c == nil || c.Len() == 0 {
					continue
				}
				pos := rng.Intn(c.Len() + 1)
				delta := rng.Intn(8) + 1
				if c.Slack() < delta {
					b.GrowChunk(c, delta)
				}
				if !c.InsertGap(pos, delta) {
					t.Fatal("gap refused after grow")
				}
				fill := bytes.Repeat([]byte{'#'}, delta)
				copy(c.Bytes()[pos:pos+delta], fill)
				model = append(model[:base+pos], append(append([]byte{}, fill...), model[base+pos:]...)...)
			case 2: // split a random chunk
				c, _ := randomChunk(rng, b)
				if c == nil {
					continue
				}
				b.SplitChunk(c, rng.Intn(c.Len()+1))
			case 3: // grow a random chunk
				c, _ := randomChunk(rng, b)
				if c == nil {
					continue
				}
				b.GrowChunk(c, rng.Intn(64))
			}
			b.CheckInvariants()
			if !bytes.Equal(b.Bytes(), model) {
				t.Fatalf("trial %d op %d: buffer diverged from model (%d vs %d bytes)",
					trial, op, b.Len(), len(model))
			}
		}
	}
}

// randomChunk picks a uniformly random chunk and returns it along with the
// byte offset of its start within the whole buffer.
func randomChunk(rng *rand.Rand, b *Buffer) (*Chunk, int) {
	if b.NumChunks() == 0 {
		return nil, 0
	}
	idx := rng.Intn(b.NumChunks())
	base := 0
	c := b.Head()
	for i := 0; i < idx; i++ {
		base += c.Len()
		c = c.Next()
	}
	return c, base
}

// TestFootprintChargesArenas holds the gauge to the pool: after every
// way a chunk can come to hold more arena than it may use — a grow to a
// size between classes, a split, an oversized item — and after a fit,
// Footprint is exactly the capacity the pool has handed out and not got
// back. ChunkSize 200 is itself between classes (256).
func TestFootprintChargesArenas(t *testing.T) {
	p := membuf.NewPool()
	p.EnableTracking()
	defer p.DisableTracking()
	b := New(Config{ChunkSize: 200, TrailingSlack: 32, Pool: p})
	check := func(step string) {
		t.Helper()
		b.CheckInvariants()
		if fp, live := b.Footprint(), p.LiveBytes(); fp != live {
			t.Fatalf("%s: Footprint %d, pool has %d B out", step, fp, live)
		}
	}
	c, _ := b.AppendString(strings.Repeat("a", 100))
	check("append")
	b.GrowChunk(c, 1000) // 100 + 1000 + 32 B: a 2 KB arena
	check("grow")
	b.SplitChunk(c, 50)
	check("split")
	b.AppendString(strings.Repeat("b", 700)) // a chunk of its own, 732 B in 1 KB
	check("oversized append")
	b.newChunk(0) // a fresh tail chunk
	tail, _ := b.AppendString("tail")
	b.FitTail()
	if b.tail != tail || tail.Cap() != 64 || string(tail.Bytes()) != "tail" {
		t.Fatalf("fitted tail: same chunk %v, cap %d, bytes %q", b.tail == tail, tail.Cap(), tail.Bytes())
	}
	check("fit")
	b.Release()
	if live := p.LiveBytes(); live != 0 {
		t.Fatalf("after Release the pool still has %d B out", live)
	}
}

// TestFitTail: a fitted tail keeps its identity, bytes and the slack
// ratio, sees its whole class, and pays for more slack only when a shift
// needs it. A tail at least half its arena is left alone.
func TestFitTail(t *testing.T) {
	p := membuf.NewPool()
	b := New(Config{Pool: p}) // 32 KB chunks, 4 KB slack: ⅛
	c, _ := b.AppendString(strings.Repeat("x", 700))
	b.FitTail()
	// 700 B + ⌈700/8⌉ = 788 B of want: the 1 KB class, all of it visible.
	if c.Cap() != 1024 || b.Footprint() != 1024 || b.Len() != 700 || b.tail != c {
		t.Fatalf("fitted: cap %d, footprint %d, len %d", c.Cap(), b.Footprint(), b.Len())
	}
	// The first shift beyond the fitted slack grows the chunk back to
	// the full trailing slack.
	b.GrowChunk(c, 500)
	if c.Slack() < 500+b.Config().TrailingSlack || string(c.Bytes()) != strings.Repeat("x", 700) {
		t.Fatalf("grow after fit: slack %d", c.Slack())
	}

	half := New(Config{ChunkSize: 1024, Pool: p})
	half.AppendString(strings.Repeat("y", 500)) // 500 + 63 B of want > 512
	before := p.Stats().Acquires
	half.FitTail()
	if half.tail.Cap() != 1024 || p.Stats().Acquires != before {
		t.Fatalf("a tail over half its arena moved: cap %d, %d acquires", half.tail.Cap(), p.Stats().Acquires-before)
	}
	New(Config{}).FitTail() // an empty buffer has no tail to fit
}

func TestFootprint(t *testing.T) {
	b := New(Config{ChunkSize: 64, TrailingSlack: 8})
	if b.Footprint() != 0 {
		t.Fatal("empty buffer has footprint")
	}
	b.AppendString("data")
	if b.Footprint() < 64 {
		t.Fatalf("footprint %d below chunk capacity", b.Footprint())
	}
	before := b.Footprint()
	b.newChunk(0) // a second chunk
	b.AppendString("more")
	if b.Footprint() <= before {
		t.Fatal("footprint did not grow with a second chunk")
	}
	// Footprint counts capacity, not use.
	if b.Footprint() < b.Len() {
		t.Fatal("footprint below used bytes")
	}
}
