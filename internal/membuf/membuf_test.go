package membuf

import (
	"sync"
	"testing"
)

func TestAcquireCapacityAndClassRounding(t *testing.T) {
	p := NewPool()
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 1 << 20, MaxPooled} {
		b := p.Acquire(n)
		if len(b.B) != 0 {
			t.Errorf("Acquire(%d): len = %d, want 0", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Errorf("Acquire(%d): cap = %d, want >= %d", n, cap(b.B), n)
		}
		if c := cap(b.B); c&(c-1) != 0 {
			t.Errorf("Acquire(%d): cap %d not a power of two", n, c)
		}
		b.Release()
	}
}

func TestOversizeUnpooled(t *testing.T) {
	p := NewPool()
	b := p.Acquire(MaxPooled + 1)
	if cap(b.B) < MaxPooled+1 {
		t.Fatalf("oversize cap = %d", cap(b.B))
	}
	b.Release()
	if s := p.Stats(); s.Oversize != 1 || s.Outstanding() != 0 {
		t.Fatalf("stats after oversize roundtrip: %+v", s)
	}
}

// TestReleaseRecyclesArena checks what membuf promises about a released
// arena coming back, and nothing sync.Pool does not: every acquire is
// counted and served at least the capacity asked for, a release is
// counted, a miss is an acquire no class could serve (so never more of
// them than acquires, and one at least from an empty pool), and with
// poisoning on an arena returns overwritten — whether it is the same
// arena is the pool's business (the race detector drops puts at random
// to make that point).
func TestReleaseRecyclesArena(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	const rounds = 8
	var last *Buf
	for i := 0; i < rounds; i++ {
		b := p.Acquire(100)
		if len(b.B) != 0 || cap(b.B) < 100 {
			t.Fatalf("round %d: len %d cap %d, want 0 and >= 100", i, len(b.B), cap(b.B))
		}
		full := b.B[:cap(b.B)]
		if b == last {
			// The arena released last round: it must carry the poison, not
			// the bytes its last owner wrote.
			for j, c := range full {
				if c != PoisonByte {
					t.Fatalf("round %d: recycled arena byte %d = %#x, want poison", i, j, c)
				}
			}
		}
		for j := range full {
			full[j] = 'A'
		}
		last = b
		b.Release()
		for j, c := range full {
			if c != PoisonByte {
				t.Fatalf("round %d: byte %d = %#x after release, want poison", i, j, c)
			}
		}
	}
	s := p.Stats()
	if s.Acquires != rounds || s.Releases != rounds || s.Outstanding() != 0 {
		t.Fatalf("stats: %+v, want %d acquires and releases", s, rounds)
	}
	if s.Misses < 1 || s.Misses > s.Acquires {
		t.Fatalf("stats: %+v, want 1 <= misses <= acquires", s)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Acquire(8)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestReleaseNilNoop(t *testing.T) {
	var b *Buf
	b.Release() // must not panic
}

func TestPoisonOnRelease(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	b := p.Acquire(64)
	b.B = b.B[:64]
	for i := range b.B {
		b.B[i] = 'A'
	}
	held := b.B // simulated use-after-release
	b.Release()
	for i, v := range held {
		if v != PoisonByte {
			t.Fatalf("byte %d after release = %#x, want %#x", i, v, PoisonByte)
		}
	}
}

// TestLeakTrackingConcurrent hammers the pool from many goroutines with
// tracking on (run under -race in check.sh): afterwards nothing may be
// outstanding, except the buffer deliberately leaked to prove the
// detector sees it.
func TestLeakTrackingConcurrent(t *testing.T) {
	p := NewPool()
	p.EnableTracking()
	defer p.DisableTracking()

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := p.Acquire(1 << uint(i%14))
				b.B = append(b.B, byte(w))
				b.Release()
			}
		}(w)
	}
	wg.Wait()

	if leaks := p.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaked buffers after balanced workload: %v", leaks)
	}
	if s := p.Stats(); s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", s.Outstanding())
	}

	leaked := p.Acquire(128)
	if leaks := p.Leaks(); len(leaks) != 1 {
		t.Fatalf("tracker reports %d leaks, want the 1 deliberate one", len(leaks))
	}
	leaked.Release()
}
