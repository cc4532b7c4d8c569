package pool

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/core"
	reg "bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// shardedStore is the concurrent template store at the heart of the
// pool, built on the unified replica registry (internal/replica): entry
// lookup, sharding, the per-operation signature LRU, in-flight
// refcounts and the byte budget all live there; this file owns what is
// client-specific — the engine replicas inside an entry and the binding
// of each message to the one replica that holds its bytes.
//
// The registry is the pool's one template store, keyed by (operation,
// structural signature), replica.TemplatesPerOp signatures an
// operation. Within one entry it holds up to Replicas engine replicas,
// each holding that key's one template under the engine lock. A call
// checks out one replica, holds its lock while the connection slot's
// stub classifies, diffs and sends through the template (its bytes are
// on the wire during the send, so they cannot be mutated
// concurrently), and releases it. Replicas are what lets a hot
// operation scale: R goroutines diff and send R copies of the same
// template in parallel, while the total first-time-send cost stays
// bounded at R per structure.
//
// Dirty bits live on the message while template bytes live per replica,
// so "these leaves changed" describes only the replica that serialized
// the message last: acquire binds each message to that one replica.
//
// An operation whose templates are full admits a new signature only
// through the registry's doorkeeper (replica.Registry.AcquireAdmitted):
// a signature refused there gets no entry, and the slot's stub serves
// its call from scratch instead (core.Stub.CallHeld with no template).
//
// Eviction — per-operation LRU cap or byte budget — condemns an entry
// in the registry; calls already holding one of its engines complete
// unaffected, and the registry releases the entry's chunk arenas when
// the last in-flight call returns. A message whose entry was evicted
// builds a fresh one on its next call, a degraded first-time send, or is
// refused one and goes out from scratch: never a diff against released
// bytes.
type shardedStore struct {
	reg      *reg.Registry[*storeEntry]
	replicas int
	metrics  *Metrics
}

// storeEntry is the replica set for one (operation, signature).
type storeEntry struct {
	mu      sync.Mutex
	engines []*engine
	// clock stamps each choice of an engine; the smallest stamp is the
	// entry's least recently used engine.
	clock uint64
	// size caches the entry's template footprint for the registry's
	// budget accounting: updated by release while the engine lock is
	// held, read lock-free by SizeBytes under registry locks.
	size atomic.Int64
}

// SizeBytes reports the cached template footprint (replica.Entry).
func (e *storeEntry) SizeBytes() int { return int(e.size.Load()) }

// ReleaseArenas returns every engine's template arenas to the chunk
// pool (replica.Entry). The registry calls it once the evicted entry's
// last in-flight call has returned; the engine locks serialize against
// a late markSuspect from a pipelined response, which afterwards finds
// no template.
func (e *storeEntry) ReleaseArenas() {
	e.mu.Lock()
	engines := e.engines
	e.mu.Unlock()
	for _, r := range engines {
		r.mu.Lock()
		if r.tpl != nil {
			r.tpl.Release()
			r.tpl = nil
		}
		r.mu.Unlock()
	}
}

// engine is one lockable differential-serialization engine: the
// template of its entry's key (nil until a call builds one, and after a
// drop), which a connection slot's stub serializes through under mu.
type engine struct {
	mu  sync.Mutex
	tpl *core.Template
	// slot is the registry slot of the entry this engine belongs to;
	// stable for the entry's lifetime, it is how release finds its way
	// back to the registry's refcount.
	slot *reg.Slot[*storeEntry]
	// bound is the message this engine's template holds the bytes of, and
	// used the entry clock when it was last chosen; both belong to the
	// entry lock, where acquire makes the choice. bound is the one record
	// of the binding: at most one engine of an entry names a message.
	bound *wire.Message
	used  uint64
	// Calls run on an engine in the order they chose it: chosen (entry
	// lock) hands out tickets, served (written under mu, after each call)
	// is the ticket whose turn it is, turn wakes the calls queued behind
	// it. The engine is free when the two are equal.
	chosen uint32
	served atomic.Uint32
	turn   sync.Cond
	// fp is the engine's last-accounted template footprint, guarded by
	// mu; release folds the delta into the entry's cached size.
	fp int64
}

// callSink is a connection slot's sink for one call: it writes the
// slot stub's output through the slot's sender and times what is spent
// there. Set and read by the goroutine that checked the slot out.
type callSink struct {
	// conn is the slot's sender. The request is written through it
	// here, under the replica lock — template bytes are only stable while
	// that is held — and its response left to pd.
	conn submitter
	pd   *transport.Pending
	// ns accumulates time inside Submit (depth stall plus write), which
	// the attribution splits out of the stub's Call time.
	ns int64
}

// submitter is what a call's sink writes through: a *transport.Sender
// in the pool (the store tests put a recording fake in its place).
// DeltaEpoch is the sender's view of the peer's patch bases, which
// every response read through it keeps current.
type submitter interface {
	Submit(p *transport.Pending, bufs net.Buffers, an transport.Annotation) error
	DeltaEpoch(tid uint64) (uint64, bool)
}

// submit is the one timed way out; the send flavours of core.DeltaSink
// are this call with the annotation filled in.
func (c *callSink) submit(bufs net.Buffers, an transport.Annotation) error {
	start := time.Now()
	err := c.conn.Submit(c.pd, bufs, an)
	c.ns += time.Since(start).Nanoseconds()
	return err
}

func (c *callSink) Send(bufs net.Buffers) error {
	return c.submit(bufs, transport.Annotation{})
}

// callSink must implement core.DeltaSink, or the stub never encodes a
// patch for a pool. The stub probes capability through DeltaEpoch, which
// answers false until the connection's peer has acknowledged a base (or
// when Delta is off), so delta stays strictly per-connection and
// degrades per call, losslessly.
var _ core.DeltaSink = (*callSink)(nil)

func (c *callSink) DeltaEpoch(tid uint64) (uint64, bool) { return c.conn.DeltaEpoch(tid) }

func (c *callSink) SendFull(bufs net.Buffers, tid, epoch uint64) error {
	return c.submit(bufs, transport.Annotation{Mode: transport.DeltaSync, TID: tid, Epoch: epoch})
}

func (c *callSink) SendDelta(bufs net.Buffers, tid, newEpoch uint64) error {
	return c.submit(bufs, transport.Annotation{Mode: transport.DeltaPatch, TID: tid, Epoch: newEpoch})
}

// newShardedStore builds a store with the given shard count (rounded up
// to a power of two), per-key replica limit, and template memory budget
// in bytes (0 = unbudgeted); Options.withDefaults holds the defaults.
func newShardedStore(shards, replicas int, maxBytes int64, m *Metrics) *shardedStore {
	if m == nil {
		m = newMetrics()
	}
	s := &shardedStore{
		replicas: replicas,
		metrics:  m,
	}
	s.reg = reg.NewRegistry(reg.RegistryOptions[*storeEntry]{
		Shards:      shards,
		MaxPerGroup: reg.TemplatesPerOp,
		MaxBytes:    maxBytes,
		New:         func(reg.Key) *storeEntry { return &storeEntry{} },
		OnEvict: func(key reg.Key, reason reg.Reason, bytes int64) {
			m.c[cEvictions].Add(1)
			if reason == reg.ReasonBudget {
				m.c[cBudgetEvictions].Add(1)
			}
			if trace.Enabled() {
				trace.Rec(0, trace.KindReplicaEvict, trace.OpID(key.Group), int64(reason), bytes)
			}
		},
	})
	counters := s.reg.Counters
	m.templateSource.Store(&counters)
	return s
}

// acquire returns a locked engine for m's operation+signature, with an
// in-flight reference held on its registry entry. The caller must
// release it after the call completes. m must not have another call in
// flight (see Pool's per-message confinement contract). It returns nil,
// holding nothing, when the doorkeeper refuses m's signature a template:
// the call is then served from scratch and binds no engine.
//
// The engine is chosen under the entry lock, by the first rule that
// applies:
//
//  1. the engine bound to m;
//  2. a new engine, while the entry holds fewer than Replicas;
//  3. the least recently used engine that is free, which m takes over;
//  4. the least recently used engine, which m queues on.
//
// The binding is recorded with the choice, and calls run on an engine in
// the order they chose it. Together these keep the engine's own view —
// the message its template last serialized — equal to the binding: a
// template can only still name m if nobody chose its engine since m did,
// and then rule 1 has sent every call of m there, so its bytes are m's
// latest. Every other meeting of message and template is a change of
// binding, which the engine answers by rewriting every value. A wait
// under rule 1 is never behind another call, only behind a late
// markSuspect or an arena release.
func (s *shardedStore) acquire(m *wire.Message) *engine {
	slot, _ := s.reg.AcquireAdmitted(reg.Key{Group: m.Operation(), Sub: m.Signature()})
	if slot == nil {
		return nil
	}
	e := slot.Value

	e.mu.Lock()
	var r, free, lru *engine
	for _, c := range e.engines {
		if c.bound == m {
			r = c
			break
		}
		if lru == nil || c.used < lru.used {
			lru = c
		}
		if c.chosen == c.served.Load() && (free == nil || c.used < free.used) {
			free = c
		}
	}
	switch {
	case r != nil:
	case len(e.engines) < s.replicas:
		r = &engine{slot: slot}
		r.turn.L = &r.mu
		e.engines = append(e.engines, r)
	case free != nil:
		r = free
	default:
		r = lru
	}
	if r.bound != m {
		if r.bound != nil {
			s.metrics.c[cTemplateRebinds].Add(1)
		}
		r.bound = m
	}
	e.clock++
	r.used = e.clock
	ticket := r.chosen
	r.chosen++
	e.mu.Unlock()

	r.mu.Lock()
	for r.served.Load() != ticket {
		r.turn.Wait()
	}
	return r
}

// release returns an engine acquired by acquire: it re-accounts the
// engine's template footprint into the entry's cached size if the call
// changed it (recharge, from serve), unlocks the engine, and drops the
// registry reference — the budget-enforcement point, and, for a
// condemned entry, possibly the release that frees its arenas.
func (s *shardedStore) release(r *engine, recharge bool) {
	if recharge {
		fp := int64(0)
		if r.tpl != nil {
			fp = int64(r.tpl.Footprint())
		}
		r.slot.Value.size.Add(fp - r.fp)
		r.fp = fp
	}
	r.served.Add(1)
	r.turn.Broadcast()
	r.mu.Unlock()
	s.reg.Release(r.slot)
}

// markSuspect poisons r's template, if it still holds one.
// The async call path uses it when a pipelined response fails after the
// submit succeeded: the replica was released long ago, so the suspicion
// arrives late — safe, because a first-time send serializes from live
// values regardless of dirty bits, and any call that raced in between
// diffed against bytes that genuinely made it onto the wire before the
// connection died. If the entry was evicted and its arenas released in
// the meantime, the lookup simply misses. span tags the flight-recorder
// event (0 = untraced).
func (s *shardedStore) markSuspect(r *engine, op string, span uint64) {
	if r == nil {
		return // served from scratch: no template to suspect
	}
	r.mu.Lock()
	found := r.tpl != nil
	if found {
		r.tpl.MarkSuspect()
	}
	r.mu.Unlock()
	if found && span != 0 {
		trace.Rec(span, trace.KindTemplateSuspect, trace.OpID(op), 0, 0)
	}
}

// templateCount counts the engines holding a template, across every
// entry. An engine's template is confined to its engine lock, so each
// is read under it, as ReleaseArenas does.
func (s *shardedStore) templateCount() int {
	n := 0
	s.reg.Each(func(_ reg.Key, e *storeEntry) {
		e.mu.Lock()
		engines := e.engines
		e.mu.Unlock()
		for _, r := range engines {
			r.mu.Lock()
			if r.tpl != nil {
				n++
			}
			r.mu.Unlock()
		}
	})
	return n
}

// debugSnapshot dumps the registry in the uniform client/server format
// served by /debug/templates and read by `bsoap-inspect templates`. Rows
// whose engines are mid-call report the registry's accounted bytes
// without blocking on the engine locks.
func (s *shardedStore) debugSnapshot() reg.Dump {
	return s.reg.Dump("client", func(e *storeEntry, d *reg.DebugEntry) {
		e.mu.Lock()
		d.Replicas = len(e.engines)
		e.mu.Unlock()
	})
}

// entries reports the number of distinct (operation, signature) keys.
func (s *shardedStore) entries() int {
	return s.reg.Len()
}
