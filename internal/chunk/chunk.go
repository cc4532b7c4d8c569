// Package chunk implements the chunked message buffer underlying bSOAP
// templates. Serialized messages are not stored in contiguous memory;
// they live in variable-sized, potentially non-contiguous chunks so that
// on-the-fly message expansion (shifting) is bounded by the size of a
// chunk rather than the size of the whole message (paper §3.2).
//
// Three configurable parameters govern the buffer, exactly the knobs the
// paper lists: the default initial chunk size, the threshold at which a
// chunk is split in two, and the slack initially left empty at the end of
// each chunk so small shifts need no reallocation.
package chunk

import (
	"fmt"
	"net"

	"bsoap/internal/membuf"
	"bsoap/internal/trace"
)

// defaultChunkSize is the default capacity of a freshly allocated chunk.
// The paper's experiments use 8 KiB and 32 KiB chunks; 32 KiB matches the
// SO_SNDBUF the authors configure.
const defaultChunkSize = 32 * 1024

// Config holds the buffer tuning parameters from paper §3.2.
type Config struct {
	// ChunkSize is the capacity of newly allocated chunks. Zero selects
	// defaultChunkSize.
	ChunkSize int
	// SplitThreshold is the used-byte count beyond which a chunk is split
	// in two instead of being grown further. Zero selects 2×ChunkSize.
	SplitThreshold int
	// TrailingSlack is the space left empty at the end of each chunk
	// during initial serialization, allowing shifts without reallocation.
	// Zero selects ChunkSize/8. A finished template's tail chunk keeps
	// only the same ratio of its own bytes (Buffer.FitTail); the first
	// shift that needs more grows the chunk, which adds the full slack.
	TrailingSlack int
	// Pool supplies chunk backing arrays. Nil selects membuf.Default.
	// Arenas are returned to it by Buffer.Release (template discard and
	// eviction paths); class rounding may grant chunks more capacity
	// than requested, which only adds shift slack.
	Pool *membuf.Pool
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = defaultChunkSize
	}
	if cfg.SplitThreshold <= 0 {
		cfg.SplitThreshold = 2 * cfg.ChunkSize
	}
	if cfg.TrailingSlack <= 0 {
		cfg.TrailingSlack = cfg.ChunkSize / 8
	}
	if cfg.TrailingSlack >= cfg.ChunkSize {
		cfg.TrailingSlack = cfg.ChunkSize / 2
	}
	if cfg.Pool == nil {
		cfg.Pool = membuf.Default
	}
	return cfg
}

// Chunk is one contiguous piece of a serialized message. Its identity is
// stable: growing a chunk reallocates its backing array but not the Chunk
// itself, so positions held elsewhere (DUT entries) survive reallocation
// untouched.
type Chunk struct {
	buf        []byte // len = used bytes, cap = allocated
	arena      *membuf.Buf
	prev, next *Chunk
	owner      *Buffer
}

// Len reports the number of used bytes in the chunk.
func (c *Chunk) Len() int { return len(c.buf) }

// Cap reports the allocated capacity of the chunk.
func (c *Chunk) Cap() int { return cap(c.buf) }

// Slack reports the unused capacity at the end of the chunk.
func (c *Chunk) Slack() int { return cap(c.buf) - len(c.buf) }

// Bytes returns the used bytes of the chunk. The slice aliases the chunk's
// storage; it is invalidated by any mutation of the buffer.
func (c *Chunk) Bytes() []byte { return c.buf }

// Next returns the following chunk, or nil at the tail.
func (c *Chunk) Next() *Chunk { return c.next }

// InsertGap moves the bytes [pos:Len()) right by delta, extending the
// chunk's used length, and reports whether the chunk had enough slack.
// The delta bytes opened at [pos:pos+delta) keep their previous contents
// and must be overwritten by the caller. InsertGap(pos, 0) is a no-op.
func (c *Chunk) InsertGap(pos, delta int) bool {
	if delta == 0 {
		return true
	}
	if pos < 0 || pos > len(c.buf) || delta < 0 {
		panic(fmt.Sprintf("chunk: InsertGap(%d, %d) out of range (len %d)", pos, delta, len(c.buf)))
	}
	if c.Slack() < delta {
		return false
	}
	old := len(c.buf)
	c.buf = c.buf[:old+delta]
	copy(c.buf[pos+delta:], c.buf[pos:old])
	c.owner.total += delta
	return true
}

// Buffer is a chunked append buffer with stable interior positions.
// The zero value is not usable; call New.
type Buffer struct {
	head, tail *Chunk
	nchunks    int
	total      int
	cfg        Config

	// Span is the trace span id of the call currently mutating the
	// buffer; the template layer sets it before applying a diff so chunk
	// grow/split events land in the right call's timeline. Zero records
	// the events unattributed.
	Span uint64
}

// New returns an empty buffer with the given configuration.
func New(cfg Config) *Buffer {
	return &Buffer{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Len reports the total number of used bytes across all chunks.
func (b *Buffer) Len() int { return b.total }

// NumChunks reports the number of chunks.
func (b *Buffer) NumChunks() int { return b.nchunks }

// Head returns the first chunk, or nil if the buffer is empty.
func (b *Buffer) Head() *Chunk { return b.head }

// newChunk allocates a chunk with at least n bytes of capacity and links
// it after prev (or at the head when prev is nil and the list is empty).
func (b *Buffer) newChunk(capacity int) *Chunk {
	if capacity < b.cfg.ChunkSize {
		capacity = b.cfg.ChunkSize
	}
	a := b.cfg.Pool.Acquire(capacity)
	// Three-index slice: the arena may be class-rounded above the
	// requested capacity, but chunk growth/split behavior must match the
	// configured sizes exactly, so the extra is hidden. (A fitted tail is
	// the one exception: FitTail hands it the whole class.)
	c := &Chunk{buf: a.B[0:0:capacity], arena: a, owner: b}
	if b.tail == nil {
		b.head, b.tail = c, c
	} else {
		c.prev = b.tail
		b.tail.next = c
		b.tail = c
	}
	b.nchunks++
	return c
}

// appendRoom returns the tail chunk if it can accept n more bytes while
// honouring the trailing-slack reservation, or a fresh chunk otherwise.
func (b *Buffer) appendRoom(n int) *Chunk {
	c := b.tail
	if c != nil && len(c.buf)+n <= cap(c.buf)-b.cfg.TrailingSlack {
		return c
	}
	// A single item larger than a default chunk gets a dedicated,
	// appropriately sized chunk.
	return b.newChunk(n + b.cfg.TrailingSlack)
}

// Reserve extends the buffer by n contiguous uninitialized bytes and
// returns the chunk holding them and their offset in it. The caller must
// overwrite them. A reserved span never crosses a chunk boundary, so a
// DUT entry can address it with a single (chunk, offset) pair.
func (b *Buffer) Reserve(n int) (*Chunk, int) {
	if n < 0 {
		panic("chunk: negative Reserve")
	}
	c := b.appendRoom(n)
	off := len(c.buf)
	c.buf = c.buf[:off+n]
	b.total += n
	return c, off
}

// AppendString copies s onto the end of the buffer, contiguously, and
// returns where it landed, as Reserve does.
func (b *Buffer) AppendString(s string) (*Chunk, int) {
	c, off := b.Reserve(len(s))
	copy(c.buf[off:], s)
	return c, off
}

// GrowChunk reallocates c so that it can hold at least need more bytes
// beyond its current length, plus the configured trailing slack. Chunk
// identity and existing offsets are unchanged.
func (b *Buffer) GrowChunk(c *Chunk, need int) {
	want := len(c.buf) + need + b.cfg.TrailingSlack
	if want <= cap(c.buf) {
		return
	}
	if trace.Enabled() {
		trace.Rec(b.Span, trace.KindChunkGrow, int64(len(c.buf)), int64(need), int64(b.Ordinal(c)))
	}
	capacity := cap(c.buf) * 2
	if capacity < want {
		capacity = want
	}
	a := b.cfg.Pool.Acquire(capacity)
	nb := a.B[0:len(c.buf):capacity]
	copy(nb, c.buf)
	c.buf = nb
	c.arena.Release()
	c.arena = a
}

// FitTail moves the tail chunk into the smallest arena that holds its
// bytes plus a proportional slack — TrailingSlack scaled by how much of a
// ChunkSize the chunk fills, so the configured ratio survives — and gives
// the chunk that arena's whole capacity. A finished template calls it
// once: its last chunk was sized for appends that will never come, and a
// one-leaf message would otherwise pin a whole ChunkSize arena. A chunk
// already filled to half its arena or more stays where it is, with no
// copy. Chunk identity and offsets are unchanged, as in GrowChunk; a
// field that later outgrows the fitted slack grows the chunk, which
// restores the full TrailingSlack.
func (b *Buffer) FitTail() {
	c := b.tail
	if c == nil {
		return
	}
	n := len(c.buf)
	slack := min(b.cfg.TrailingSlack, (n*b.cfg.TrailingSlack+b.cfg.ChunkSize-1)/b.cfg.ChunkSize)
	want := n + slack
	if want > c.arena.Cap()/2 {
		return // no smaller class holds it
	}
	a := b.cfg.Pool.Acquire(want)
	if a.Cap() >= c.arena.Cap() { // the arena is already the smallest class
		a.Release()
		return
	}
	nb := a.B[0:n:a.Cap()]
	copy(nb, c.buf)
	c.buf = nb
	c.arena.Release()
	c.arena = a
}

// SplitChunk moves the bytes [at:Len()) of c into a freshly allocated
// chunk inserted immediately after c, and returns the new chunk. The new
// chunk is allocated with the configured slack so the pending shift that
// triggered the split has room. Moving the entries that pointed past at
// is left to the caller, which knows where its entries are.
func (b *Buffer) SplitChunk(c *Chunk, at int) *Chunk {
	if at < 0 || at > len(c.buf) {
		panic(fmt.Sprintf("chunk: SplitChunk at %d out of range (len %d)", at, len(c.buf)))
	}
	if trace.Enabled() {
		trace.Rec(b.Span, trace.KindChunkSplit, int64(len(c.buf)), int64(at), int64(b.Ordinal(c)))
	}
	movedLen := len(c.buf) - at
	capacity := movedLen + b.cfg.TrailingSlack
	if capacity < b.cfg.ChunkSize {
		capacity = b.cfg.ChunkSize
	}
	a := b.cfg.Pool.Acquire(capacity)
	nc := &Chunk{buf: a.B[0:movedLen:capacity], arena: a, owner: b}
	copy(nc.buf, c.buf[at:])
	c.buf = c.buf[:at]

	nc.prev = c
	nc.next = c.next
	if c.next != nil {
		c.next.prev = nc
	} else {
		b.tail = nc
	}
	c.next = nc
	b.nchunks++
	return nc
}

// Ordinal reports c's 0-based position in the chunk list; trace events
// use it to name the chunk a shift or split happened in.
func (b *Buffer) Ordinal(c *Chunk) int {
	n := 0
	for x := b.head; x != nil && x != c; x = x.next {
		n++
	}
	return n
}

// BuffersInto fills *dst with the used byte ranges of every chunk, in
// order, for a vectored write (writev / net.Buffers), reusing dst's
// backing array. The slices alias chunk storage; the vector is valid
// until the buffer is next mutated or released. Returns the filled
// vector.
func (b *Buffer) BuffersInto(dst *net.Buffers) net.Buffers {
	out := (*dst)[:0]
	for c := b.head; c != nil; c = c.next {
		if len(c.buf) > 0 {
			out = append(out, c.buf)
		}
	}
	*dst = out
	return out
}

// Bytes returns a copy of the buffer's contents as one contiguous slice.
// It allocates per call and exists for tests, tools and cold paths; hot
// paths send the chunks directly via BuffersInto.
func (b *Buffer) Bytes() []byte {
	dst := make([]byte, 0, b.total)
	for c := b.head; c != nil; c = c.next {
		dst = append(dst, c.buf...)
	}
	return dst
}

// Footprint reports the total capacity of the arenas the chunks hold —
// the resident-memory cost the paper's chunk overlaying bounds (§3.3).
// It charges whole arenas, not the capacity a chunk is allowed to use:
// class rounding after a grow, a split or an oversized item is memory
// held all the same.
func (b *Buffer) Footprint() int {
	n := 0
	for c := b.head; c != nil; c = c.next {
		n += c.arena.Cap()
	}
	return n
}

// reset discards all chunks without returning their arenas to the pool,
// keeping the configuration. Use Release when the caller owns the buffer
// exclusively and no slices into it remain live.
func (b *Buffer) reset() {
	b.head, b.tail = nil, nil
	b.nchunks, b.total = 0, 0
}

// Release returns every chunk's arena to the pool and resets the buffer.
// The caller must hold exclusive ownership: no slice obtained from
// Bytes-free accessors (chunk Bytes, BuffersInto) may be used
// afterwards. Owners that cannot prove exclusivity (e.g. eviction racing
// in-flight sends) must drop the buffer instead.
func (b *Buffer) Release() {
	for c := b.head; c != nil; c = c.next {
		c.arena.Release()
		c.arena = nil
		c.buf = nil
	}
	b.reset()
}

// CheckInvariants validates the internal consistency of the buffer:
// linkage, byte accounting, and slack bounds. Tests and the fuzzing
// harness call it after every mutation; it panics on corruption.
func (b *Buffer) CheckInvariants() {
	var total, n int
	var prev *Chunk
	for c := b.head; c != nil; c = c.next {
		if c.prev != prev {
			panic("chunk: broken prev link")
		}
		if c.owner != b {
			panic("chunk: chunk owned by wrong buffer")
		}
		if len(c.buf) > cap(c.buf) {
			panic("chunk: len exceeds cap")
		}
		total += len(c.buf)
		n++
		prev = c
	}
	if prev != b.tail {
		panic("chunk: tail mismatch")
	}
	if total != b.total {
		panic(fmt.Sprintf("chunk: byte accounting off: counted %d, recorded %d", total, b.total))
	}
	if n != b.nchunks {
		panic(fmt.Sprintf("chunk: chunk accounting off: counted %d, recorded %d", n, b.nchunks))
	}
}
