package replica

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RegistryOptions configures a Registry over entry type E.
type RegistryOptions[E Entry] struct {
	// Shards is the number of lock shards (rounded up to a power of
	// two, default 8). Keys are spread by Key.hash; all entries of a
	// Group land in one shard.
	Shards int
	// MaxEntries caps the total entry count; the cap is applied per
	// shard as max(1, MaxEntries/Shards). 0 means uncapped.
	MaxEntries int
	// MaxPerGroup caps the number of entries per Group (the historical
	// per-operation signature cap). 0 means uncapped. It also sizes each
	// group's doorkeeper (see AcquireAdmitted).
	MaxPerGroup int
	// MaxBytes is the registry's memory budget: the sum of accounted
	// entry sizes is kept at or below it by evicting least-recently-
	// used entries. 0 means unbudgeted.
	MaxBytes int64
	// minBytesPerGroup is the fairness floor: budget eviction skips
	// entries whose group's resident bytes are at or below the floor
	// while any group above its floor can pay instead. Defaults to
	// MaxBytes/64 when a budget is set.
	minBytesPerGroup int64
	// New constructs the entry for a key on first Acquire. It is called
	// under the shard lock and must not call back into the registry.
	New func(Key) E
	// OnEvict observes every eviction (metrics, tracing). It is called
	// outside registry locks; bytes is the entry's accounted size at
	// condemnation time.
	OnEvict func(key Key, reason Reason, bytes int64)
}

// Slot is a registry entry plus its runtime state. Callers read Key and
// Value freely (Value's own synchronization is the owner's business);
// the remaining fields are guarded by the shard lock.
type Slot[E Entry] struct {
	Key   Key
	Value E

	refs    int32 // in-flight Acquires not yet Released, plus a condemner's until its sweep
	bytes   int64 // accounted size
	evicted bool  // condemned: out of the maps, awaiting last Release
	lastUse int64 // unix nanos of the last Acquire
}

// Counters is a point-in-time snapshot of a registry's accounting.
type Counters struct {
	Entries         int
	Bytes           int64
	HighWater       int64
	Pending         int64 // condemned entries whose arenas are not yet released
	EvictionsLRU    int64
	EvictionsBudget int64
	// Refused counts AcquireAdmitted calls the doorkeeper turned away.
	Refused int64
}

// Registry is the sharded, budget-bounded replica store.
type Registry[E Entry] struct {
	opts     RegistryOptions[E]
	shards   []rshard[E]
	mask     uint32
	perShard int

	bytes           atomic.Int64
	reserved        atomic.Int64
	highWater       atomic.Int64
	pending         atomic.Int64
	evictionsLRU    atomic.Int64
	evictionsBudget atomic.Int64
	refused         atomic.Int64
	cursor          atomic.Uint32
}

type rshard[E Entry] struct {
	mu      sync.Mutex
	entries *LRU[Key, *Slot[E]]
	groups  map[string]*groupStats
	_       [24]byte // soften false sharing between adjacent shard locks
}

type groupStats struct {
	count int
	bytes int64
	// refused is the group's doorkeeper: the key hashes of its last
	// MaxPerGroup refusals (0 is an empty place), next the place the
	// next refusal takes. Allocated at the group's first refusal.
	refused []uint64
	next    int
}

// admit reports whether the full group lets sub in: only a key it has
// refused within its last len(refused) refusals. A key admitted leaves
// the ring; a key refused takes the oldest place in it.
func (g *groupStats) admit(sub string, size int) bool {
	h := fnv64(sub) | 1
	for i, x := range g.refused {
		if x == h {
			g.refused[i] = 0
			return true
		}
	}
	if g.refused == nil {
		g.refused = make([]uint64, size)
	}
	g.refused[g.next] = h
	g.next = (g.next + 1) % size
	return false
}

// NewRegistry builds a registry. opts.New is required.
func NewRegistry[E Entry](opts RegistryOptions[E]) *Registry[E] {
	if opts.New == nil {
		panic("replica: RegistryOptions.New is required")
	}
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	shards := 1
	for shards < opts.Shards {
		shards <<= 1
	}
	if opts.MaxBytes > 0 && opts.minBytesPerGroup == 0 {
		opts.minBytesPerGroup = opts.MaxBytes / 64
	}
	r := &Registry[E]{
		opts:   opts,
		shards: make([]rshard[E], shards),
		mask:   uint32(shards - 1),
	}
	if opts.MaxEntries > 0 {
		r.perShard = opts.MaxEntries / shards
		if r.perShard < 1 {
			r.perShard = 1
		}
	}
	for i := range r.shards {
		r.shards[i].entries = NewLRU[Key, *Slot[E]]()
		r.shards[i].groups = make(map[string]*groupStats)
	}
	return r
}

func (r *Registry[E]) shardFor(key Key) *rshard[E] {
	return &r.shards[key.hash()&r.mask]
}

// Acquire returns the slot for key, creating it if absent, with the
// in-flight refcount incremented. Callers must pair every Acquire with
// exactly one Release. created reports whether the entry was built by
// this call.
func (r *Registry[E]) Acquire(key Key) (s *Slot[E], created bool) {
	return r.acquire(key, false)
}

// AcquireAdmitted is Acquire behind a doorkeeper on the per-group cap.
// A key that is resident, or whose group has room, is acquired as by
// Acquire. A new key of a full group is admitted — evicting the group's
// least recently used entry — only when the group refused that key
// within its last MaxPerGroup refusals; any other is refused: the call
// returns a nil slot, keeps nothing and must not be Released. So a shape
// has to come back within MaxPerGroup refusals to displace a resident
// entry, entries in use are never displaced by a rotation of shapes
// wider than the cap, and a new steady set of at most MaxPerGroup keys
// replaces the old one within two rotations.
func (r *Registry[E]) AcquireAdmitted(key Key) (s *Slot[E], created bool) {
	return r.acquire(key, true)
}

func (r *Registry[E]) acquire(key Key, gated bool) (s *Slot[E], created bool) {
	sh := r.shardFor(key)
	now := time.Now().UnixNano()
	sh.mu.Lock()
	if s, ok := sh.entries.Get(key); ok {
		s.refs++
		s.lastUse = now
		sh.mu.Unlock()
		return s, false
	}

	// Count caps: condemn victims under the lock, finalize outside it.
	var victims []*Slot[E]
	if key.Group != "" && r.opts.MaxPerGroup > 0 {
		if g := sh.groups[key.Group]; g != nil && g.count >= r.opts.MaxPerGroup {
			if gated && !g.admit(key.Sub, r.opts.MaxPerGroup) {
				sh.mu.Unlock()
				r.refused.Add(1)
				return nil, false
			}
			if v := sh.tailOfGroup(key.Group); v != nil {
				r.condemnLocked(sh, v)
				victims = append(victims, v)
			}
		}
	}
	if r.perShard > 0 && sh.entries.Len() >= r.perShard {
		if _, v, ok := sh.entries.RemoveTail(); ok {
			r.condemnRemovedLocked(sh, v)
			victims = append(victims, v)
		}
	}

	s = &Slot[E]{Key: key, refs: 1, lastUse: now}
	s.Value = r.opts.New(key)
	sh.entries.PushFront(key, s)
	if key.Group != "" {
		g := sh.groups[key.Group]
		if g == nil {
			g = &groupStats{}
			sh.groups[key.Group] = g
		}
		g.count++
	}
	sh.mu.Unlock()

	for _, v := range victims {
		r.sweep(v, ReasonLRU)
	}
	return s, true
}

// Release drops one in-flight reference and re-accounts the entry's
// size. It is the registry's budget-enforcement point: growth is
// admitted reservation-first, evicting cold entries until the budget
// fits, so the exported bytes gauge never exceeds MaxBytes (except for
// a single entry larger than the whole budget, which is admitted
// regardless). If the slot was condemned while in flight, the last
// Release frees its arenas.
func (r *Registry[E]) Release(s *Slot[E]) {
	sh := r.shardFor(s.Key)
	sh.mu.Lock()
	if s.evicted {
		s.refs--
		free := s.refs == 0
		sh.mu.Unlock()
		if free {
			r.finalize(s)
		}
		return
	}
	size := int64(s.Value.SizeBytes())
	delta := size - s.bytes
	if delta <= 0 {
		r.commitLocked(sh, s, size)
		s.refs--
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()

	// Growth: reserve the delta, make room for budget + reservations,
	// then commit. Concurrent growers each reserve their own observed
	// delta; commits telescope to at most the sum of reservations, so
	// the gauge stays under budget.
	r.reserved.Add(delta)
	r.makeRoom(s)
	sh.mu.Lock()
	if s.evicted {
		r.reserved.Add(-delta)
		s.refs--
		free := s.refs == 0
		sh.mu.Unlock()
		if free {
			r.finalize(s)
		}
		return
	}
	size = int64(s.Value.SizeBytes())
	if !r.tryCommitGrowthLocked(sh, s, size) {
		// makeRoom gave up (nothing evictable was left, or racing
		// commits claimed the freed space first) and admitting this
		// growth would push the gauge past the budget. Condemn the
		// entry instead of overshooting: the caller's bytes are
		// already serialized, only the cached template is lost, and
		// the next call on this key degrades to a first-time send /
		// full parse.
		r.condemnLocked(sh, s)
		r.reserved.Add(-delta)
		s.refs--
		sh.mu.Unlock()
		r.sweep(s, ReasonBudget)
		return
	}
	// Un-reserve only after the commit: a delta must never be absent
	// from both counters at once, or a concurrent grower's makeRoom
	// would miss it, stop evicting early, and let this commit push the
	// gauge past the budget.
	r.reserved.Add(-delta)
	s.refs--
	sh.mu.Unlock()
}

// commitLocked re-accounts s at size. Caller holds the shard lock.
func (r *Registry[E]) commitLocked(sh *rshard[E], s *Slot[E], size int64) {
	delta := size - s.bytes
	if delta == 0 {
		return
	}
	nb := r.bytes.Add(delta)
	r.noteCommitLocked(sh, s, size, nb)
}

// tryCommitGrowthLocked is the admission gate that makes the bytes
// gauge's budget contract unconditional: growth lands on the gauge via
// a compare-and-swap that refuses to move it past MaxBytes while any
// other entry's bytes are resident. makeRoom is best-effort — it can
// give up with the budget still exceeded (every other slot condemned
// or uncommitted), and two growers in different shards can each pass a
// lock-protected check yet overshoot together — so the final add must
// carry the check atomically. The one admitted excess is a slot with
// no other resident bytes (cur == s.bytes): a single entry larger than
// the whole budget is cached rather than thrashed. Caller holds the
// shard lock. Returns false when the growth was refused.
func (r *Registry[E]) tryCommitGrowthLocked(sh *rshard[E], s *Slot[E], size int64) bool {
	delta := size - s.bytes
	if delta <= 0 {
		r.commitLocked(sh, s, size)
		return true
	}
	for {
		cur := r.bytes.Load()
		if r.opts.MaxBytes > 0 && cur+delta > r.opts.MaxBytes && cur > s.bytes {
			return false
		}
		if r.bytes.CompareAndSwap(cur, cur+delta) {
			r.noteCommitLocked(sh, s, size, cur+delta)
			return true
		}
	}
}

// noteCommitLocked finishes a commit whose gauge movement already
// happened: per-group bytes, the slot's accounted size, and the
// high-water mark. Caller holds the shard lock.
func (r *Registry[E]) noteCommitLocked(sh *rshard[E], s *Slot[E], size, nb int64) {
	if s.Key.Group != "" {
		if g := sh.groups[s.Key.Group]; g != nil {
			g.bytes += size - s.bytes
		}
	}
	s.bytes = size
	for {
		hw := r.highWater.Load()
		if nb <= hw || r.highWater.CompareAndSwap(hw, nb) {
			break
		}
	}
}

// makeRoom evicts until accounted bytes plus outstanding reservations
// fit the budget, or until nothing evictable remains. self — the slot
// whose growth is being admitted — is never its own victim: evicting
// the entry we are about to account would throw away the freshest
// template for nothing, and exempting it is what admits a single entry
// larger than the whole budget.
func (r *Registry[E]) makeRoom(self *Slot[E]) {
	if r.opts.MaxBytes <= 0 {
		return
	}
	// Read reserved before bytes: a concurrent committer moves its delta
	// reserved → bytes (in that order), so this read order can at worst
	// double-count an in-transition delta — an overestimate that evicts
	// a little extra, never an undercount that overshoots the budget.
	for r.reserved.Load()+r.bytes.Load() > r.opts.MaxBytes {
		if !r.evictOneForBudget(self) {
			return
		}
	}
}

// evictOneForBudget condemns one victim, relaxing its standards in
// three tiers: (0) idle entries from groups above the fairness floor,
// (1) any idle entry, (2) condemn an in-flight entry — its bytes leave
// the accounting now and its arenas are freed by the last Release.
// Shards are scanned round-robin from a moving cursor, one lock at a
// time; locks are never nested.
func (r *Registry[E]) evictOneForBudget(self *Slot[E]) bool {
	n := len(r.shards)
	for relax := 0; relax <= 2; relax++ {
		start := int(r.cursor.Add(1))
		for i := 0; i < n; i++ {
			sh := &r.shards[(start+i)%n]
			if v := r.tryEvictLocked(sh, relax, self); v != nil {
				r.sweep(v, ReasonBudget)
				return true
			}
		}
	}
	return false
}

// tryEvictLocked scans one shard's recency list from the tail for a
// victim admissible at the given relaxation tier and condemns it.
func (r *Registry[E]) tryEvictLocked(sh *rshard[E], relax int, self *Slot[E]) *Slot[E] {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var victim *Slot[E]
	sh.entries.fromTail(func(_ Key, s *Slot[E]) bool {
		if s == self {
			return true
		}
		if relax < 2 && s.refs > 0 {
			return true
		}
		if relax < 1 && s.Key.Group != "" && r.opts.minBytesPerGroup > 0 {
			if g := sh.groups[s.Key.Group]; g != nil && g.bytes <= r.opts.minBytesPerGroup {
				return true
			}
		}
		victim = s
		return false
	})
	if victim == nil {
		return nil
	}
	r.condemnLocked(sh, victim)
	return victim
}

// condemnLocked removes s from the shard maps and the accounting.
// Caller holds the shard lock.
func (r *Registry[E]) condemnLocked(sh *rshard[E], s *Slot[E]) {
	sh.entries.Remove(s.Key)
	r.condemnRemovedLocked(sh, s)
}

// condemnRemovedLocked is condemnLocked for a slot already unlinked
// from the recency list (RemoveTail). The condemner takes a reference
// of its own, dropped by the sweep it owes the slot: whoever brings a
// condemned slot's refs to zero — that sweep or the last holder's
// Release, both under the shard lock — is the one that finalizes it.
func (r *Registry[E]) condemnRemovedLocked(sh *rshard[E], s *Slot[E]) {
	s.evicted = true
	s.refs++
	r.bytes.Add(-s.bytes)
	r.pending.Add(1)
	if s.Key.Group != "" {
		if g := sh.groups[s.Key.Group]; g != nil {
			g.count--
			g.bytes -= s.bytes
			if g.count == 0 {
				delete(sh.groups, s.Key.Group)
			}
		}
	}
}

// sweep runs the outside-the-lock half of an eviction, once per
// condemnation: the observer hook, then the condemner's reference is
// dropped and, if no call still holds the entry, its arenas released.
func (r *Registry[E]) sweep(s *Slot[E], reason Reason) {
	if reason == ReasonBudget {
		r.evictionsBudget.Add(1)
	} else {
		r.evictionsLRU.Add(1)
	}
	if r.opts.OnEvict != nil {
		r.opts.OnEvict(s.Key, reason, s.bytes)
	}
	sh := r.shardFor(s.Key)
	sh.mu.Lock()
	s.refs--
	free := s.refs == 0
	sh.mu.Unlock()
	if free {
		r.finalize(s)
	}
}

// finalize frees a condemned slot's arenas, exactly once, outside
// registry locks.
func (r *Registry[E]) finalize(s *Slot[E]) {
	s.Value.ReleaseArenas()
	r.pending.Add(-1)
}

// tailOfGroup finds the least recently used entry of a group. Caller
// holds the shard lock.
func (sh *rshard[E]) tailOfGroup(group string) *Slot[E] {
	var victim *Slot[E]
	sh.entries.fromTail(func(_ Key, s *Slot[E]) bool {
		if s.Key.Group == group {
			victim = s
			return false
		}
		return true
	})
	return victim
}

// Len reports the number of resident entries.
func (r *Registry[E]) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += sh.entries.Len()
		sh.mu.Unlock()
	}
	return n
}

// Counters snapshots the registry's accounting.
func (r *Registry[E]) Counters() Counters {
	return Counters{
		Entries:         r.Len(),
		Bytes:           r.bytes.Load(),
		HighWater:       r.highWater.Load(),
		Pending:         r.pending.Load(),
		EvictionsLRU:    r.evictionsLRU.Load(),
		EvictionsBudget: r.evictionsBudget.Load(),
		Refused:         r.refused.Load(),
	}
}

// Each visits every resident entry. Values are snapshotted under the
// shard lock and visited outside it, so visit may take entry locks.
func (r *Registry[E]) Each(visit func(key Key, e E)) {
	var snap []*Slot[E]
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.entries.FromFront(func(_ Key, s *Slot[E]) bool {
			snap = append(snap, s)
			return true
		})
		sh.mu.Unlock()
	}
	for _, s := range snap {
		visit(s.Key, s.Value)
	}
}

// DebugEntry is one row of the uniform /debug/templates dump shared by
// the client and server registries.
type DebugEntry struct {
	Op        string `json:"op,omitempty"`
	Signature string `json:"sig,omitempty"`
	Affinity  string `json:"affinity"`
	Replicas  int    `json:"replicas"`
	Bytes     int64  `json:"bytes"`
	InFlight  int    `json:"in_flight"`
	LastUseNS int64  `json:"last_use_unix_ns"`
	IdleMS    int64  `json:"idle_ms"`
}

// Dump is the uniform /debug/templates document.
type Dump struct {
	Side            string       `json:"side"`
	Entries         int          `json:"entries"`
	Bytes           int64        `json:"bytes"`
	BudgetBytes     int64        `json:"budget_bytes"`
	HighWaterBytes  int64        `json:"high_water_bytes"`
	EvictionsLRU    int64        `json:"evictions_lru"`
	EvictionsBudget int64        `json:"evictions_budget"`
	Refused         int64        `json:"refused"` // shapes served without a template (AcquireAdmitted)
	Templates       []DebugEntry `json:"templates"`
}

// DumpHandler serves snapshot's Dump as indented JSON — the
// /debug/templates endpoint of both sides, in the one shape
// `bsoap-inspect templates` renders.
func DumpHandler(snapshot func() Dump) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	})
}

// Dump builds the uniform debug document. fill, called outside shard
// locks, decorates each row with entry-specific fields (replica count);
// it may take entry locks.
func (r *Registry[E]) Dump(side string, fill func(e E, d *DebugEntry)) Dump {
	now := time.Now().UnixNano()
	type row struct {
		d DebugEntry
		e E
	}
	var rows []row
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.entries.FromFront(func(_ Key, s *Slot[E]) bool {
			rows = append(rows, row{
				d: DebugEntry{
					Op:        s.Key.Group,
					Signature: s.Key.Sub,
					Affinity:  s.Key.String(),
					Replicas:  1,
					Bytes:     s.bytes,
					InFlight:  int(s.refs),
					LastUseNS: s.lastUse,
					IdleMS:    (now - s.lastUse) / int64(time.Millisecond),
				},
				e: s.Value,
			})
			return true
		})
		sh.mu.Unlock()
	}
	out := Dump{
		Side:            side,
		Entries:         len(rows),
		Bytes:           r.bytes.Load(),
		BudgetBytes:     r.opts.MaxBytes,
		HighWaterBytes:  r.highWater.Load(),
		EvictionsLRU:    r.evictionsLRU.Load(),
		EvictionsBudget: r.evictionsBudget.Load(),
		Refused:         r.refused.Load(),
		Templates:       make([]DebugEntry, 0, len(rows)),
	}
	for i := range rows {
		if fill != nil {
			fill(rows[i].e, &rows[i].d)
		}
		out.Templates = append(out.Templates, rows[i].d)
	}
	sort.Slice(out.Templates, func(i, j int) bool {
		a, b := &out.Templates[i], &out.Templates[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Signature != b.Signature {
			return a.Signature < b.Signature
		}
		return a.Affinity < b.Affinity
	})
	return out
}
