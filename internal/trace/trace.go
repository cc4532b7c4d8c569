// Package trace is the flight recorder for the differential send path:
// a preallocated, fixed-size ring of binary event records capturing, per
// call, *why* the engine classified a send the way it did and what
// repair work (rewrites, tag shifts, shifts, steals, chunk grows/splits)
// it triggered — plus the runtime around it (pool checkouts, redials,
// retries, transport dials and deadline hits).
//
// The recorder is built for production use on the zero-allocation
// steady-state path the engine guarantees:
//
//   - Recording never allocates. Events are fixed-size structs assigned
//     into a preallocated slot array; op names are interned once (cold,
//     at first-time sends) into a lock-free read table.
//   - A global on/off gate compiles call sites down to one atomic load
//     and a predictable branch when tracing is disabled — hooks wrap
//     their argument computation in `if trace.Enabled() { … }`.
//   - Per-event-kind sampling bounds the recording rate of high-volume
//     kinds (a 1000-leaf PSM send is 1000 rewrite events at rate 1):
//     kind k is recorded every Nth occurrence, deterministically, with
//     the phase seeded so tests can pin the exact recorded subset.
//   - Writers reserve a slot with one atomic increment and publish the
//     event under that slot's mutex (uncontended unless two writers
//     collide on the same slot a full ring apart), so concurrent
//     recording is race-free without a global lock on the hot path.
//
// The ring holds the most recent Size events; older ones are overwritten
// (flight-recorder semantics). Dump snapshots it oldest-first.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what an event records. The A/B/C argument meanings are
// listed per kind; unused arguments are zero.
type Kind uint8

const (
	// KindCallStart opens a span: A=op id (see Dump.Ops), B=dirty leaf
	// count at entry, C=0.
	KindCallStart Kind = iota
	// KindMatch records the classification decision: A=core.MatchKind,
	// B=1 when the call was degraded (suspect template discarded).
	KindMatch
	// KindRewrite is one dirty-field rewrite: A=leaf index, B=old
	// serialized length, C=new serialized length.
	KindRewrite
	// KindTagShift is a closing-tag shift within a field: A=leaf index,
	// B=new serialized length, C=field width.
	KindTagShift
	// KindShift is a field expansion served by shifting the chunk tail:
	// A=leaf index, B=bytes moved, C=chunk ordinal. The deficit is the
	// growth visible in the adjacent KindRewrite event.
	KindShift
	// KindSteal is a field expansion served by stealing neighbour
	// padding: A=leaf index, B=deficit, C=donor leaf index.
	KindSteal
	// KindChunkGrow is a chunk reallocation: A=chunk length before,
	// B=bytes needed, C=chunk ordinal.
	KindChunkGrow
	// KindChunkSplit is a chunk split: A=chunk length before, B=split
	// offset, C=chunk ordinal.
	KindChunkSplit
	// KindTemplateBuild is a first-time serialization recording a new
	// template: A=op id, B=template bytes.
	KindTemplateBuild
	// KindTemplateSuspect marks a template poisoned by a failed send:
	// A=op id.
	KindTemplateSuspect
	// KindTemplateRebind is a same-structure different-message rebind
	// (all values rewritten, tags reused): A=op id.
	KindTemplateRebind
	// KindStaleRebind was a forced full value rewrite because the message
	// returned to a replica holding stale bytes: A=op id. Nothing records
	// it any more; the kind keeps its number so saved rings still decode.
	KindStaleRebind
	// KindPoolCheckout is a connection checkout: A=1 when the caller had
	// to wait for a free slot.
	KindPoolCheckout
	// KindPoolRetry is a send retry after connection repair: A=attempt
	// number.
	KindPoolRetry
	// KindDial is a transport dial: A=1 on success, 0 on failure,
	// B=duration in nanoseconds.
	KindDial
	// KindRedial is a connection repair re-dial: A=1 on success, 0 on
	// failure, B=duration in nanoseconds.
	KindRedial
	// KindDeadline is a socket operation that hit its read/write
	// deadline: A=1 for read, 0 for write.
	KindDeadline
	// KindCallEnd closes a span: A=core.MatchKind, B=bytes on wire,
	// C=bytes serialized. Errors are recorded as KindCallErr instead.
	KindCallEnd
	// KindCallErr closes a span whose send failed: A=core.MatchKind,
	// B=bytes attempted.
	KindCallErr
	// KindOverlayPortion is one chunk-overlay portion streamed: A=first
	// item index, B=item count, C=portion bytes.
	KindOverlayPortion
	// KindServerDecode is one server-side request decode: A=1 on the
	// differential fast path / 0 on a full parse, B=leaf value regions
	// re-lexed, C=body bytes.
	KindServerDecode
	// KindServerRespond is one server-side differential response
	// serialization: A=core.MatchKind of the response send, B=response
	// bytes.
	KindServerRespond
	// KindAsyncSubmit is a pooled call's request written to its
	// connection's pipeline, its response not yet read: A=op id,
	// B=requests in flight on the connection after the submit.
	KindAsyncSubmit
	// KindAsyncComplete resolves a pooled call's response: A=1 on
	// success / 0 on error, B=call-start-to-completion latency in
	// nanoseconds.
	KindAsyncComplete
	// KindReplicaEvict is a replica-registry eviction (client or server):
	// A=op id (0 for conn/host-keyed entries), B=reason (0 LRU count cap,
	// 1 byte budget), C=the entry's accounted bytes. Span 0: evictions
	// belong to the registry, not to any one call.
	KindReplicaEvict
	// KindServerSpan links a propagated client span to the server-local
	// sub-span handling it: Span=the client's span id (as carried in the
	// X-BSoap-Trace header), A=the server-local sub-span id, B=connection
	// id. Recorded once per traced request on the server, it is the
	// correlation anchor the inspector's -correlate mode keys on.
	KindServerSpan
	// KindStage is one per-call latency-attribution sample: A=Stage,
	// B=duration in nanoseconds. Client stages carry the client span,
	// server stages the propagated client span (or the server-local span
	// when no header was present).
	KindStage
	// KindDeltaSend is one warm call shipped as a patch frame instead of
	// the full body: A=frame bytes on wire, B=body bytes represented,
	// C=template delta id.
	KindDeltaSend
	// KindDeltaResync is a patch the peer rejected (epoch skew, checksum
	// fail, evicted base), transparently resent in full: A=template
	// delta id.
	KindDeltaResync

	kindCount = int(KindDeltaResync) + 1
)

var kindNames = [kindCount]string{
	KindCallStart:       "call-start",
	KindMatch:           "match",
	KindRewrite:         "rewrite",
	KindTagShift:        "tag-shift",
	KindShift:           "shift",
	KindSteal:           "steal",
	KindChunkGrow:       "chunk-grow",
	KindChunkSplit:      "chunk-split",
	KindTemplateBuild:   "template-build",
	KindTemplateSuspect: "template-suspect",
	KindTemplateRebind:  "template-rebind",
	KindStaleRebind:     "stale-rebind",
	KindPoolCheckout:    "pool-checkout",
	KindPoolRetry:       "pool-retry",
	KindDial:            "dial",
	KindRedial:          "redial",
	KindDeadline:        "deadline",
	KindCallEnd:         "call-end",
	KindCallErr:         "call-err",
	KindOverlayPortion:  "overlay-portion",
	KindServerDecode:    "server-decode",
	KindServerRespond:   "server-respond",
	KindAsyncSubmit:     "async-submit",
	KindAsyncComplete:   "async-complete",
	KindReplicaEvict:    "replica-evict",
	KindServerSpan:      "server-span",
	KindStage:           "stage",
	KindDeltaSend:       "delta-send",
	KindDeltaResync:     "delta-resync",
}

// String returns the kind's wire name (stable; the inspector and the
// JSON dump use it).
func (k Kind) String() string {
	if int(k) < kindCount {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString resolves a wire name back to its Kind; ok is false for
// unknown names.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// event is one fixed-size binary record. Span groups the events of one
// call; Seq is the global ring sequence (total ordering across spans);
// Time is UnixNano at recording.
type event struct {
	Seq  uint64
	Span uint64
	Time int64
	Kind Kind
	A    int64
	B    int64
	C    int64
}

// slot is one ring cell. The mutex makes a writer publishing an event
// and a reader (Dump) copying it race-free; it is uncontended unless two
// writers land on the same cell a whole ring apart.
type slot struct {
	mu sync.Mutex
	ev event
}

// sampler decides, deterministically, which occurrences of one kind are
// recorded: every rate-th occurrence, with the counter's starting phase
// derived from the seed.
type sampler struct {
	rate uint64 // 0 or 1 = record all
	ctr  atomic.Uint64
}

func (s *sampler) take() bool {
	r := s.rate
	if r <= 1 {
		return true
	}
	return (s.ctr.Add(1)-1)%r == 0
}

// Tracer is a flight recorder. The zero value is unusable; call New.
// All methods are safe for concurrent use. Most programs use the
// package-level Default tracer via the package functions.
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	nspan   atomic.Uint64
	slots   []slot
	mask    uint64
	samp    [kindCount]sampler

	// ops interns operation names to small ids so events stay binary:
	// opID is a lock-free read on the warm path, one insert per distinct
	// operation (cold, during first-time sends).
	ops    sync.Map // string -> uint32
	nextOp atomic.Uint32
	opsRev sync.Map // uint32 -> string

	// Slow-call capture (see slow.go). slowMode gates ObserveCall down
	// to one atomic load when capture is off.
	slowMode     atomic.Int32
	slowThresh   atomic.Int64  // ns; <=0 means "not yet established"
	slowQuantile atomic.Uint64 // math.Float64bits of the rolling quantile
	slowIdx      atomic.Uint64
	slowCaptured atomic.Uint64
	slowLat      Hist // end-to-end latencies feeding the rolling-quantile threshold
	slow         []slowEntry
}

// DefaultSize is the ring capacity tracers start with: enough for the
// full decision trail of hundreds of calls at moderate sampling.
const DefaultSize = 1 << 14

// New returns a disabled tracer whose ring holds size events (rounded up
// to a power of two; <=0 selects DefaultSize).
func New(size int) *Tracer {
	if size <= 0 {
		size = DefaultSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Tracer{
		slots: make([]slot, n),
		mask:  uint64(n - 1),
		slow:  make([]slowEntry, slowRingSize),
	}
}

// Enable turns recording on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// disable turns recording off. In-flight Rec calls that already passed
// the gate may still land; subsequent ones are a single branch.
func (t *Tracer) disable() { t.enabled.Store(false) }

// Enabled reports whether recording is on. Hook sites test this before
// computing event arguments, so a disabled tracer costs one atomic load
// and one predictable branch per potential event.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetSampling records only every rate-th event of the given kind (1
// records all, 0 is treated as 1), with the occurrence counter's phase
// seeded for deterministic selection.
func (t *Tracer) SetSampling(k Kind, rate uint64, seed uint64) {
	s := &t.samp[k]
	s.rate = rate
	if rate > 1 {
		s.ctr.Store(seed % rate)
	} else {
		s.ctr.Store(0)
	}
}

// beginSpan allocates a fresh span id (never zero).
func (t *Tracer) beginSpan() uint64 { return t.nspan.Add(1) }

// opID interns an operation name, returning its stable small id. Warm
// lookups are lock-free and allocation-free.
func (t *Tracer) opID(op string) int64 {
	if v, ok := t.ops.Load(op); ok {
		return int64(v.(uint32))
	}
	id := t.nextOp.Add(1)
	if actual, loaded := t.ops.LoadOrStore(op, id); loaded {
		return int64(actual.(uint32))
	}
	t.opsRev.Store(id, op)
	return int64(id)
}

// Rec records one event. It is the single hot-path entry point: gate
// check, sampling decision, slot reservation, publish — no allocation on
// any branch.
func (t *Tracer) Rec(span uint64, k Kind, a, b, c int64) {
	if !t.enabled.Load() {
		return
	}
	if !t.samp[k].take() {
		return
	}
	i := t.seq.Add(1) - 1
	s := &t.slots[i&t.mask]
	s.mu.Lock()
	s.ev = event{Seq: i, Span: span, Time: time.Now().UnixNano(), Kind: k, A: a, B: b, C: c}
	s.mu.Unlock()
}

// Dump is a point-in-time snapshot of the ring: the retained events
// oldest-first, the op-name table, and how many events the ring has
// dropped (overwritten) since the last Clear.
type Dump struct {
	// Recorded is the total number of events recorded (including
	// overwritten ones); Dropped = Recorded - len(Events).
	Recorded uint64           `json:"recorded"`
	Dropped  uint64           `json:"dropped"`
	Ops      map[int64]string `json:"ops"`
	Events   []EventJSON      `json:"events"`
	// Next is the cursor an incremental poller passes back as
	// ?since=<Next> to receive only events recorded after this snapshot
	// (it equals Recorded at snapshot time).
	Next uint64 `json:"next"`
}

// EventJSON is the JSON rendering of an event (kind by name).
type EventJSON struct {
	Seq  uint64 `json:"seq"`
	Span uint64 `json:"span"`
	Time int64  `json:"t"`
	Kind string `json:"kind"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	C    int64  `json:"c"`
}

// Snapshot copies the retained events out of the ring, oldest-first.
// Events recorded while the snapshot runs may be partially included (the
// ring keeps moving); each individual event is read consistently.
func (t *Tracer) Snapshot() Dump { return t.snapshotSince(0) }

// snapshotSince is Snapshot restricted to events with Seq >= since; it
// backs the /debug/trace?since= incremental-polling cursor. Events
// already overwritten are reported through Dropped as usual — a poller
// that falls more than a ring behind sees a gap, not stale data.
func (t *Tracer) snapshotSince(since uint64) Dump {
	total := t.seq.Load()
	size := uint64(len(t.slots))
	lo := uint64(0)
	if total > size {
		lo = total - size
	}
	dropped := lo
	if since > lo {
		lo = since
	}
	if lo > total {
		lo = total
	}
	d := Dump{
		Recorded: total,
		Dropped:  dropped,
		Ops:      make(map[int64]string),
		Events:   make([]EventJSON, 0, total-lo),
		Next:     total,
	}
	t.opsRev.Range(func(k, v any) bool {
		d.Ops[int64(k.(uint32))] = v.(string)
		return true
	})
	for i := lo; i < total; i++ {
		s := &t.slots[i&t.mask]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq != i {
			// The slot was lapped (overwritten by a newer event, or not
			// yet published); skip rather than emit a mismatched record.
			continue
		}
		d.Events = append(d.Events, EventJSON{
			Seq: ev.Seq, Span: ev.Span, Time: ev.Time,
			Kind: ev.Kind.String(), A: ev.A, B: ev.B, C: ev.C,
		})
	}
	return d
}

// Status is a cheap point-in-time summary of the tracer for health
// endpoints: a handful of atomic loads, no ring scan, no event copies.
type Status struct {
	Enabled  bool   `json:"enabled"`
	RingSize int    `json:"ring_size"`
	Recorded uint64 `json:"recorded"`
	Spans    uint64 `json:"spans"`

	SlowMode        string `json:"slow_mode"` // "off", "absolute", "quantile"
	SlowThresholdNs int64  `json:"slow_threshold_ns"`
	SlowCaptured    uint64 `json:"slow_captured"`
	SlowRingSize    int    `json:"slow_ring_size"`
}

// status summarizes the tracer's recording and slow-ring state.
func (t *Tracer) status() Status {
	st := Status{
		Enabled:      t.enabled.Load(),
		RingSize:     len(t.slots),
		Recorded:     t.seq.Load(),
		Spans:        t.nspan.Load(),
		SlowCaptured: t.slowCaptured.Load(),
		SlowRingSize: len(t.slow),
	}
	switch t.slowMode.Load() {
	case slowModeAbsolute:
		st.SlowMode = "absolute"
		st.SlowThresholdNs = t.slowThresh.Load()
	case slowModeQuantile:
		st.SlowMode = "quantile"
		st.SlowThresholdNs = t.slowThresh.Load()
	default:
		st.SlowMode = "off"
	}
	return st
}

// Clear discards all retained events and resets the sequence (span ids
// and op interning are preserved).
func (t *Tracer) Clear() {
	// Zero the slots under their locks so a concurrent Snapshot never
	// sees a stale event whose Seq matches a fresh sequence number.
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		s.ev = event{Seq: ^uint64(0)}
		s.mu.Unlock()
	}
	t.seq.Store(0)
}

// Default is the process-wide flight recorder every hook in core, chunk,
// pool and transport records into. It starts disabled: until Enable is
// called the hooks cost one atomic load each.
var Default = New(DefaultSize)

// Enabled reports whether the default tracer is recording.
func Enabled() bool { return Default.Enabled() }

// Enable turns the default tracer on.
func Enable() { Default.Enable() }

// Disable turns the default tracer off.
func Disable() { Default.disable() }

// Rec records into the default tracer.
func Rec(span uint64, k Kind, a, b, c int64) { Default.Rec(span, k, a, b, c) }

// BeginSpan allocates a span id from the default tracer.
func BeginSpan() uint64 { return Default.beginSpan() }

// OpID interns an operation name in the default tracer.
func OpID(op string) int64 { return Default.opID(op) }

// GetStatus summarizes the default tracer (see Tracer.status).
func GetStatus() Status { return Default.status() }
