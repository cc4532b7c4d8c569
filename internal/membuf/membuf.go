// Package membuf is the buffer-ownership layer under the send path: a
// size-classed arena pool with explicit acquire/release semantics.
//
// The differential-serialization engine's whole point is that warm sends
// reuse bytes the peer already has; membuf extends the same discipline to
// the memory holding those bytes. Template chunks, growth copies and
// split halves draw their backing arrays from here instead of the global
// allocator, so template churn (build, grow, split, evict) recycles
// arenas instead of leaving garbage for the collector — the residual cost
// the paper's model does not charge but a concurrent Go port pays in GC
// pressure.
//
// # Ownership rules
//
//   - Acquire returns a *Buf whose B field is a zero-length slice with at
//     least the requested capacity. The caller owns it exclusively.
//   - Ownership transfers at most once more: whoever ends up holding the
//     Buf (a chunk, a template) must Release it exactly once, after which
//     the bytes must not be touched — under the `membufpoison` build tag
//     (or SetPoison(true)) they are overwritten with PoisonByte to make
//     use-after-release loud.
//   - Release of a Buf twice panics; that is a caller bug, not a
//     recoverable condition.
//   - Releasing is optional for correctness: an un-Released Buf is
//     ordinary garbage and the collector reclaims it. Leak tracking
//     (EnableTracking) exists so tests can prove hot paths do release.
//
// Only owners with exclusive access may Release: the sharded pool
// runtime's LRU eviction, which can race in-flight calls still holding a
// replica, drops references and lets the collector finish instead (see
// DESIGN.md §9).
package membuf

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PoisonByte fills released buffers when poisoning is on.
const PoisonByte = 0xDB

const (
	// minClassBits..maxClassBits bound the pooled size classes:
	// 64 B … 4 MiB in powers of two. Larger requests are served by the
	// allocator directly (and Release on them is a counted no-op).
	minClassBits = 6
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1

	// MaxPooled is the largest request served from a size class.
	MaxPooled = 1 << maxClassBits

	oversizeClass = -1
)

// Buf is one pooled byte buffer. B always aliases the arena's full
// backing array (len is caller-managed, cap is the class size). The
// struct itself is recycled along with its bytes.
type Buf struct {
	B []byte

	class int8
	pool  *Pool // nil while released (double-release detection)
}

// Cap reports the buffer's full capacity.
func (b *Buf) Cap() int { return cap(b.B) }

// Release returns the buffer to its pool. Releasing twice panics; the
// bytes must not be used afterwards. Release of a nil Buf is a no-op so
// cleanup paths need not branch.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	p := b.pool
	if p == nil {
		panic("membuf: Buf released twice")
	}
	b.pool = nil
	p.release(b)
}

// Stats is a point-in-time snapshot of pool activity.
type Stats struct {
	// Acquires and Releases count Acquire/Release calls (including
	// oversize ones).
	Acquires, Releases int64
	// Misses counts acquires the size-class pools could not serve (a
	// fresh arena was allocated).
	Misses int64
	// Oversize counts acquires above MaxPooled, served unpooled.
	Oversize int64
}

// Outstanding reports buffers currently acquired and not yet released.
func (s Stats) Outstanding() int64 { return s.Acquires - s.Releases }

// Pool hands out size-classed buffers. The zero value is not usable;
// call NewPool (or use Default). All methods are safe for concurrent
// use — the classes are sync.Pools, so a release on one goroutine can
// serve an acquire on another without any lock of membuf's own.
type Pool struct {
	classes [numClasses]sync.Pool

	acquires atomic.Int64
	releases atomic.Int64
	misses   atomic.Int64
	oversize atomic.Int64

	poison atomic.Bool

	// tracking mode (tests): live maps Buf → acquire site.
	tracking atomic.Bool
	trackMu  sync.Mutex
	live     map[*Buf]string
}

// Default is the process-wide pool the chunk layer draws from unless a
// Config names another.
var Default = NewPool()

// NewPool returns an empty pool. Poisoning defaults on when the binary
// is built with the `membufpoison` tag.
func NewPool() *Pool {
	p := &Pool{}
	p.poison.Store(poisonDefault)
	return p
}

// SetPoison turns poison-on-release on or off at runtime (tests; the
// membufpoison build tag flips the default for whole binaries).
func (p *Pool) SetPoison(on bool) { p.poison.Store(on) }

// classFor returns the smallest class index whose size holds n, or
// oversizeClass.
func classFor(n int) int {
	if n > MaxPooled {
		return oversizeClass
	}
	c := 0
	for size := 1 << minClassBits; size < n; size <<= 1 {
		c++
	}
	return c
}

// Acquire returns a buffer with len(B) == 0 and cap(B) >= n. The caller
// owns it until Release.
func (p *Pool) Acquire(n int) *Buf {
	if n < 0 {
		panic("membuf: negative Acquire")
	}
	p.acquires.Add(1)
	class := classFor(n)
	var b *Buf
	if class == oversizeClass {
		p.oversize.Add(1)
		b = &Buf{B: make([]byte, 0, n), class: oversizeClass}
	} else if got, ok := p.classes[class].Get().(*Buf); ok {
		b = got
		b.B = b.B[:0]
	} else {
		p.misses.Add(1)
		b = &Buf{B: make([]byte, 0, 1<<(minClassBits+class)), class: int8(class)}
	}
	b.pool = p
	if p.tracking.Load() {
		p.track(b)
	}
	return b
}

// release is the pool half of Buf.Release.
func (p *Pool) release(b *Buf) {
	p.releases.Add(1)
	if p.tracking.Load() {
		p.untrack(b)
	}
	if p.poison.Load() {
		full := b.B[:cap(b.B)]
		for i := range full {
			full[i] = PoisonByte
		}
	}
	if b.class == oversizeClass {
		return // unpooled; the collector takes it from here
	}
	p.classes[b.class].Put(b)
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Acquires: p.acquires.Load(),
		Releases: p.releases.Load(),
		Misses:   p.misses.Load(),
		Oversize: p.oversize.Load(),
	}
}

// EnableTracking records the acquire site of every live buffer until
// DisableTracking; Leaks reports what is still held. Tracking allocates
// and takes a lock per acquire/release — tests only.
func (p *Pool) EnableTracking() {
	p.trackMu.Lock()
	p.live = make(map[*Buf]string)
	p.trackMu.Unlock()
	p.tracking.Store(true)
}

// DisableTracking stops tracking and drops the live map.
func (p *Pool) DisableTracking() {
	p.tracking.Store(false)
	p.trackMu.Lock()
	p.live = nil
	p.trackMu.Unlock()
}

// Leaks returns the acquire sites of buffers still live under tracking.
func (p *Pool) Leaks() []string {
	p.trackMu.Lock()
	defer p.trackMu.Unlock()
	out := make([]string, 0, len(p.live))
	for _, site := range p.live {
		out = append(out, site)
	}
	return out
}

// LiveBytes sums the capacity of the buffers still live under tracking:
// the memory the pool has handed out and not got back.
func (p *Pool) LiveBytes() int {
	p.trackMu.Lock()
	defer p.trackMu.Unlock()
	n := 0
	for b := range p.live {
		n += cap(b.B)
	}
	return n
}

func (p *Pool) track(b *Buf) {
	_, file, line, _ := runtime.Caller(2)
	p.trackMu.Lock()
	if p.live != nil {
		p.live[b] = fmt.Sprintf("%s:%d", file, line)
	}
	p.trackMu.Unlock()
}

func (p *Pool) untrack(b *Buf) {
	p.trackMu.Lock()
	delete(p.live, b)
	p.trackMu.Unlock()
}
