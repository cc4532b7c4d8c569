package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// testEntry is an Entry with an owner-maintained atomic size and a
// double-release detector.
type testEntry struct {
	size     atomic.Int64
	released atomic.Int32
}

func (e *testEntry) SizeBytes() int { return int(e.size.Load()) }
func (e *testEntry) ReleaseArenas() {
	if e.released.Add(1) != 1 {
		panic("testEntry released twice")
	}
}

type evictRec struct {
	key    Key
	reason Reason
	bytes  int64
}

type evictLog struct {
	mu   sync.Mutex
	recs []evictRec
}

func (l *evictLog) hook(key Key, reason Reason, bytes int64) {
	l.mu.Lock()
	l.recs = append(l.recs, evictRec{key, reason, bytes})
	l.mu.Unlock()
}

func (l *evictLog) byReason(r Reason) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, rec := range l.recs {
		if rec.reason == r {
			n++
		}
	}
	return n
}

func newTestRegistry(opts RegistryOptions[*testEntry]) *Registry[*testEntry] {
	if opts.New == nil {
		opts.New = func(Key) *testEntry { return &testEntry{} }
	}
	return NewRegistry(opts)
}

// checkout acquires, sets the size, releases.
func checkout(r *Registry[*testEntry], key Key, size int64) *Slot[*testEntry] {
	s, _ := r.Acquire(key)
	s.Value.size.Store(size)
	r.Release(s)
	return s
}

func TestAcquireReleaseAccounting(t *testing.T) {
	r := newTestRegistry(RegistryOptions[*testEntry]{Shards: 2})
	s, created := r.Acquire(Key{Group: "op", Sub: "sig"})
	if !created {
		t.Fatal("first Acquire did not create")
	}
	s2, created := r.Acquire(Key{Group: "op", Sub: "sig"})
	if created || s2 != s {
		t.Fatal("second Acquire did not find the entry")
	}
	s.Value.size.Store(100)
	r.Release(s)
	r.Release(s2)
	if got := r.Bytes(); got != 100 {
		t.Fatalf("Bytes = %d, want 100", got)
	}
	c := r.Counters()
	if c.Entries != 1 || c.HighWater != 100 || c.Pending != 0 {
		t.Fatalf("counters = %+v", c)
	}
	// Shrink re-accounts downward but high water stays.
	s3, _ := r.Acquire(Key{Group: "op", Sub: "sig"})
	s3.Value.size.Store(40)
	r.Release(s3)
	c = r.Counters()
	if c.Bytes != 40 || c.HighWater != 100 {
		t.Fatalf("after shrink: %+v", c)
	}
}

func TestPerGroupCountCap(t *testing.T) {
	var log evictLog
	r := newTestRegistry(RegistryOptions[*testEntry]{
		Shards: 1, MaxPerGroup: 2, OnEvict: log.hook,
	})
	a := checkout(r, Key{Group: "op", Sub: "a"}, 10)
	checkout(r, Key{Group: "op", Sub: "b"}, 10)
	checkout(r, Key{Group: "other", Sub: "x"}, 10)
	// Touch a so b is the op-group tail.
	checkout(r, Key{Group: "op", Sub: "a"}, 10)
	checkout(r, Key{Group: "op", Sub: "c"}, 10)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if n := log.byReason(ReasonLRU); n != 1 {
		t.Fatalf("LRU evictions = %d, want 1", n)
	}
	log.mu.Lock()
	victim := log.recs[0].key
	log.mu.Unlock()
	if victim != (Key{Group: "op", Sub: "b"}) {
		t.Fatalf("evicted %v, want op/b (group tail)", victim)
	}
	// The other group was untouched; a was kept (touched).
	if s, created := r.Acquire(Key{Group: "op", Sub: "a"}); created {
		t.Fatal("a was evicted")
	} else if s != a {
		t.Fatal("a's slot changed identity")
	} else {
		r.Release(s)
	}
	if c := r.Counters(); c.EvictionsLRU != 1 || c.EvictionsBudget != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPerShardCountCap(t *testing.T) {
	r := newTestRegistry(RegistryOptions[*testEntry]{Shards: 1, MaxEntries: 3})
	var entries []*testEntry
	for i := 0; i < 5; i++ {
		s, _ := r.Acquire(Key{Conn: uint64(i + 1)})
		entries = append(entries, s.Value)
		r.Release(s)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	// The two oldest were evicted and, being idle, released immediately.
	if entries[0].released.Load() != 1 || entries[1].released.Load() != 1 {
		t.Fatal("evicted idle entries were not released")
	}
	if entries[4].released.Load() != 0 {
		t.Fatal("resident entry was released")
	}
}

func TestBudgetEvictsIdleColdestFirst(t *testing.T) {
	var log evictLog
	r := newTestRegistry(RegistryOptions[*testEntry]{
		Shards: 1, MaxBytes: 250, minBytesPerGroup: 1, OnEvict: log.hook,
	})
	checkout(r, Key{Group: "a", Sub: "1"}, 100)
	checkout(r, Key{Group: "b", Sub: "1"}, 100)
	if r.Bytes() != 200 {
		t.Fatalf("Bytes = %d", r.Bytes())
	}
	// Third entry pushes past 250: the coldest (a/1) must go.
	checkout(r, Key{Group: "c", Sub: "1"}, 100)
	if got := r.Bytes(); got != 200 {
		t.Fatalf("Bytes after budget eviction = %d, want 200", got)
	}
	if n := log.byReason(ReasonBudget); n != 1 {
		t.Fatalf("budget evictions = %d, want 1", n)
	}
	log.mu.Lock()
	victim := log.recs[0]
	log.mu.Unlock()
	if victim.key != (Key{Group: "a", Sub: "1"}) || victim.bytes != 100 {
		t.Fatalf("victim = %+v, want a/1 @100", victim)
	}
	if c := r.Counters(); c.HighWater > 250 {
		t.Fatalf("high water %d exceeded budget 250", c.HighWater)
	}
}

func TestBudgetFairnessFloorSkipsSmallGroups(t *testing.T) {
	var log evictLog
	r := newTestRegistry(RegistryOptions[*testEntry]{
		Shards: 1, MaxBytes: 400, minBytesPerGroup: 50, OnEvict: log.hook,
	})
	// small group sits at the LRU tail but under the floor; big is above.
	checkout(r, Key{Group: "small", Sub: "1"}, 40)
	checkout(r, Key{Group: "big", Sub: "1"}, 150)
	checkout(r, Key{Group: "big", Sub: "2"}, 150)
	// +100 would hit 440 > 400: tier-0 must skip small (40 <= floor 50)
	// and evict big/1 even though small is colder.
	checkout(r, Key{Group: "other", Sub: "1"}, 100)
	log.mu.Lock()
	victim := log.recs[0].key
	log.mu.Unlock()
	if victim != (Key{Group: "big", Sub: "1"}) {
		t.Fatalf("victim = %v, want big/1 (small group is floor-protected)", victim)
	}
	if _, created := r.Acquire(Key{Group: "small", Sub: "1"}); created {
		t.Fatal("floor-protected entry was evicted")
	}
}

func TestBudgetCondemnsInFlightAsLastResort(t *testing.T) {
	var log evictLog
	r := newTestRegistry(RegistryOptions[*testEntry]{
		Shards: 1, MaxBytes: 100, minBytesPerGroup: 1, OnEvict: log.hook,
	})
	// Pin the only entry in flight while it grows past the budget, then
	// admit a second entry: tier 2 must condemn the pinned one.
	pinned, _ := r.Acquire(Key{Group: "op", Sub: "pin"})
	pinned.Value.size.Store(90)
	r.Release(pinned)
	again, _ := r.Acquire(Key{Group: "op", Sub: "pin"}) // hold in flight
	checkout(r, Key{Group: "op", Sub: "new"}, 90)
	if n := log.byReason(ReasonBudget); n != 1 {
		t.Fatalf("budget evictions = %d, want 1 (condemned in-flight)", n)
	}
	if pinned.Value.released.Load() != 0 {
		t.Fatal("in-flight entry's arenas were released while pinned")
	}
	c := r.Counters()
	if c.Pending != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending)
	}
	if c.Bytes > 100 {
		t.Fatalf("bytes gauge %d exceeds budget 100", c.Bytes)
	}
	// A fresh Acquire of the condemned key builds a new entry.
	fresh, created := r.Acquire(Key{Group: "op", Sub: "pin"})
	if !created {
		t.Fatal("condemned key still resident")
	}
	r.Release(fresh)
	// Last Release of the condemned slot frees the arenas.
	r.Release(again)
	if pinned.Value.released.Load() != 1 {
		t.Fatal("final Release did not free the condemned entry")
	}
	if c := r.Counters(); c.Pending != 0 {
		t.Fatalf("pending = %d after final release", c.Pending)
	}
}

// TestCondemnedSlotFinalizedOnce replays, in the one order that used to
// free twice, the two halves of an eviction around the last holder's
// Release: the slot is condemned in flight, its holder releases it
// before the condemner's sweep runs, then the sweep runs.
func TestCondemnedSlotFinalizedOnce(t *testing.T) {
	var log evictLog
	r := newTestRegistry(RegistryOptions[*testEntry]{Shards: 1, OnEvict: log.hook})
	s, _ := r.Acquire(Key{Group: "op", Sub: "a"})
	sh := r.shardFor(s.Key)
	sh.mu.Lock()
	r.condemnLocked(sh, s)
	sh.mu.Unlock()

	r.Release(s)
	if n := s.Value.released.Load(); n != 0 {
		t.Fatalf("released %d times before the sweep dropped the condemner's reference", n)
	}
	r.sweep(s, ReasonLRU) // testEntry panics on a second ReleaseArenas
	if n := s.Value.released.Load(); n != 1 {
		t.Fatalf("released %d times, want 1", n)
	}
	if c := r.Counters(); c.Pending != 0 || c.EvictionsLRU != 1 {
		t.Fatalf("pending = %d, lru evictions = %d, want 0 and 1", c.Pending, c.EvictionsLRU)
	}
}

func TestOversizedEntryAdmittedOverBudget(t *testing.T) {
	r := newTestRegistry(RegistryOptions[*testEntry]{Shards: 1, MaxBytes: 100})
	checkout(r, Key{Group: "op", Sub: "huge"}, 500)
	if r.Len() != 1 {
		t.Fatal("oversized entry was not admitted")
	}
	if r.Bytes() != 500 {
		t.Fatalf("Bytes = %d, want 500 (documented oversize exception)", r.Bytes())
	}
}

func TestEachAndDump(t *testing.T) {
	r := newTestRegistry(RegistryOptions[*testEntry]{Shards: 4, MaxBytes: 1 << 20})
	checkout(r, Key{Group: "mul", Sub: "s1"}, 10)
	checkout(r, Key{Group: "add", Sub: "s1"}, 20)
	checkout(r, Key{Conn: 7}, 30)
	seen := 0
	r.Each(func(key Key, e *testEntry) {
		seen++
		if e == nil {
			t.Fatalf("nil entry for %v", key)
		}
	})
	if seen != 3 {
		t.Fatalf("Each visited %d, want 3", seen)
	}
	d := r.Dump("client", func(e *testEntry, row *DebugEntry) {
		row.Replicas = 2
	})
	if d.Side != "client" || d.Entries != 3 || d.BudgetBytes != 1<<20 {
		t.Fatalf("dump header = %+v", d)
	}
	if d.Bytes != 60 {
		t.Fatalf("dump bytes = %d, want 60", d.Bytes)
	}
	// Sorted: empty-op conn row first, then add, then mul.
	if d.Templates[0].Affinity != "conn:7" || d.Templates[1].Op != "add" || d.Templates[2].Op != "mul" {
		t.Fatalf("dump order: %+v", d.Templates)
	}
	for _, row := range d.Templates {
		if row.Replicas != 2 {
			t.Fatalf("fill not applied: %+v", row)
		}
		if row.LastUseNS == 0 {
			t.Fatalf("missing last-use: %+v", row)
		}
	}
	if d.Templates[1].Signature != "s1" || d.Templates[1].Bytes != 20 {
		t.Fatalf("add row = %+v", d.Templates[1])
	}
}

func TestKeyStringAndReason(t *testing.T) {
	cases := []struct {
		key  Key
		want string
	}{
		{Key{Group: "mul", Sub: "sig"}, "op:mul"},
		{Key{Sub: "10.0.0.1"}, "host:10.0.0.1"},
		{Key{Conn: 17}, "conn:17"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.key, got, c.want)
		}
	}
	if ReasonLRU.String() != "lru" || ReasonBudget.String() != "budget" {
		t.Fatal("reason labels changed; metrics depend on them")
	}
}

func TestRegistryRequiresNew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRegistry without New did not panic")
		}
	}()
	NewRegistry(RegistryOptions[*testEntry]{})
}

// TestConcurrentChurnUnderBudget hammers a small-budget registry from
// many goroutines and checks the invariants the production runtimes
// rely on: the bytes gauge never exceeds the budget, no entry is
// released twice or while in flight, and after quiescing nothing is
// left pending.
func TestConcurrentChurnUnderBudget(t *testing.T) {
	const budget = 1000
	var log evictLog
	r := newTestRegistry(RegistryOptions[*testEntry]{
		Shards: 4, MaxBytes: budget, minBytesPerGroup: 1, OnEvict: log.hook,
	})
	var over atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := Key{Group: fmt.Sprintf("op%d", i%5), Sub: fmt.Sprintf("s%d", (g+i)%7)}
				s, _ := r.Acquire(key)
				if s.Value.released.Load() != 0 {
					panic("acquired a released entry")
				}
				s.Value.size.Store(int64(50 + (i%3)*25))
				r.Release(s)
				if b := r.Bytes(); b > budget {
					over.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if over.Load() != 0 {
		t.Fatalf("bytes gauge exceeded budget %d times", over.Load())
	}
	c := r.Counters()
	if c.Bytes > budget {
		t.Fatalf("final bytes %d > budget", c.Bytes)
	}
	if c.Pending != 0 {
		t.Fatalf("pending = %d after quiesce", c.Pending)
	}
	if c.EvictionsBudget == 0 {
		t.Fatal("no budget evictions under sustained pressure")
	}
	// Every evicted entry must have been released exactly once — the
	// double-release panic in testEntry guards the "exactly", this
	// guards the "once happened at all".
	log.mu.Lock()
	evictions := len(log.recs)
	log.mu.Unlock()
	if evictions == 0 {
		t.Fatal("no evictions recorded by hook")
	}
}

// Bytes reports the accounted resident size.
func (r *Registry[E]) Bytes() int64 { return r.bytes.Load() }

// TestAcquireAdmittedDoorkeeper walks the doorkeeper on a group capped
// at two: room admits; a full group refuses a new key, keeping and
// building nothing, until the key comes back within two refusals; a key
// pushed out of the ring by two later refusals is refused again; and
// Acquire, the ungated path, admits whatever the ring says.
func TestAcquireAdmittedDoorkeeper(t *testing.T) {
	var built int
	r := newTestRegistry(RegistryOptions[*testEntry]{
		MaxPerGroup: 2,
		New:         func(Key) *testEntry { built++; return &testEntry{} },
	})
	key := func(sub string) Key { return Key{Group: "op", Sub: sub} }
	admitted := func(sub string) bool {
		t.Helper()
		s, _ := r.AcquireAdmitted(key(sub))
		if s != nil {
			r.Release(s)
		}
		return s != nil
	}
	for _, step := range []struct {
		sub  string
		want bool
	}{
		{"a", true}, {"b", true}, // room
		{"c", false}, {"c", true}, // refused, then back within two refusals: evicts a
		{"a", false}, {"d", false}, {"e", false}, // a leaves the ring two refusals later
		{"a", false}, {"e", true}, // a is refused afresh; e was still in the ring
		{"b", false}, // b was evicted by e
	} {
		if got := admitted(step.sub); got != step.want {
			t.Fatalf("%s: admitted %v, want %v", step.sub, got, step.want)
		}
	}
	c := r.Counters()
	if c.Refused != 6 || c.EvictionsLRU != 2 || c.Entries != 2 || built != 4 {
		t.Fatalf("refused %d, evictions %d, entries %d, built %d; want 6, 2, 2 and 4",
			c.Refused, c.EvictionsLRU, c.Entries, built)
	}
	if s, created := r.Acquire(key("f")); s == nil || !created {
		t.Fatal("Acquire went through the doorkeeper")
	} else {
		r.Release(s)
	}
	if d := r.Dump("client", nil); d.Refused != 6 {
		t.Fatalf("dump reads %d refused, want 6", d.Refused)
	}
}
