// Package replica is the unified replica runtime: one sharded,
// affinity-aware, budget-bounded registry of engine replicas shared by
// the client pool (per-(operation,signature) template replica sets) and
// the server runtime (per-connection decode/respond replicas).
//
// Before this package existed the tree carried four bespoke copies of
// the same machinery — pool.ShardedStore's per-op signature LRU, the
// serverpool replica LRU, diffdeser's operation-key LRU and core.Store's
// in-slice rotation — each with its own sharding, eviction counters and
// in-flight protection story. They are all ports of the two pieces
// here:
//
//   - LRU: the one recency list (map-indexed intrusive doubly-linked
//     list, O(1) touch, allocation-free on the warm path).
//   - Registry: the sharded entry store, parameterized over the entry
//     type, owning count caps (per shard and per group), an in-flight
//     refcount protocol, and byte-accurate memory budgeting.
//
// # Ownership and refcounts
//
// Every Acquire increments the entry's in-flight refcount; every
// Release decrements it. An evicted entry is condemned — removed from
// the maps and the recency list, its bytes subtracted from the
// registry's accounting — but its arena-backed memory (Entry.
// ReleaseArenas) is only freed once the refcount reaches zero. That is
// the protocol that lets the client pool release template arenas at
// all: the old ShardedStore could never call membuf release on eviction
// because a concurrent call might still be diffing against the bytes,
// so evicted replica sets were left for the garbage collector. With
// refcounts the registry knows when the last in-flight call returns and
// releases exactly then.
//
// # Budgets
//
// A registry with Options.MaxBytes > 0 keeps the sum of its entries'
// accounted sizes at or below the budget. Sizes are reported by the
// entries (Entry.SizeBytes, which must be cheap and race-free — owners
// cache sizes in atomics and update them while holding their own entry
// locks) and re-read at every Release. Growth is admitted
// reservation-first: the releasing call reserves its delta, evicts
// least-recently-used entries until budget + reservations fit, then
// commits — so the exported bytes gauge never exceeds the budget. (The
// one documented exception: a single entry larger than the whole budget
// is admitted anyway, since evicting everything else still could not
// make it fit.) Budget eviction respects per-group fairness floors: a
// group (operation) whose resident bytes are at or below the floor is
// skipped while any group above its floor can pay instead.
package replica

import "strconv"

// Key identifies one registry entry. Exactly one grouping is used per
// registry: the client pool keys by (Group=operation, Sub=signature),
// the server runtime by Conn (AffinityConn) or Sub=remote host
// (AffinityClient). Group, when set, names the fairness-accounting
// group and pins all of a group's entries to one shard so per-group
// caps and floors need no cross-shard coordination.
type Key struct {
	// Group is the operation name (client registries) or "" (server
	// registries, which have no per-group semantics).
	Group string
	// Sub distinguishes entries within a group (the structural
	// signature) or names the client host under host affinity.
	Sub string
	// Conn is the transport connection ID under connection affinity.
	Conn uint64
}

// String renders the key as the uniform affinity-key column of the
// /debug/templates dump.
func (k Key) String() string {
	switch {
	case k.Group != "":
		return "op:" + k.Group
	case k.Sub != "":
		return "host:" + k.Sub
	default:
		return "conn:" + strconv.FormatUint(k.Conn, 10)
	}
}

// hash spreads keys over shards. Group-keyed entries hash the group
// alone, keeping every signature of an operation in one shard (the
// per-group LRU cap and fairness floor are therefore global for the
// operation while different operations never contend).
func (k Key) hash() uint32 {
	if k.Group != "" {
		return fnv32(k.Group)
	}
	if k.Sub != "" {
		return fnv32(k.Sub)
	}
	return uint32(k.Conn*2654435761) ^ uint32(k.Conn>>32)
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Affinity64 hashes a pointer-derived identity to spread it stably over
// a small set of replicas (Fibonacci hashing; pointer low bits are all
// zero from alignment). Nothing in this module calls it any more — the
// client pool binds a message to its replica exactly — and it stays
// exported only because the frozen benchmark's sameReplica (set-up of
// shared_2w, benchmark/stack.go) still does.
func Affinity64(p uintptr) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> 32
}

// Entry is what a Registry stores. Implementations are the pool's
// replica set and the server's per-connection replica.
type Entry interface {
	// SizeBytes reports the entry's current resident cost. It is called
	// under registry locks and must be cheap and race-free: owners keep
	// a cached atomic size, updated while holding their own entry lock.
	SizeBytes() int
	// ReleaseArenas frees the entry's arena-backed memory. The registry
	// calls it exactly once, outside its own locks, after the entry has
	// been evicted and its in-flight refcount has dropped to zero.
	ReleaseArenas()
}

// Reason classifies an eviction.
type Reason int

const (
	// ReasonLRU marks a count-cap eviction (per-group or per-shard).
	ReasonLRU Reason = iota
	// ReasonBudget marks an eviction driven by Options.MaxBytes.
	ReasonBudget
)

// String returns the stable label value used by metrics.
func (r Reason) String() string {
	if r == ReasonBudget {
		return "budget"
	}
	return "lru"
}
