// Package pool is the concurrent client runtime for differential
// serialization: many goroutines share one Pool and every Call still
// benefits from template reuse.
//
// The paper measures its gains through a single stub on a single
// connection. Scaling that to a production client means solving three
// problems the single-stub model sidesteps:
//
//   - Connections: a bounded sender pool with checkout/checkin, lazy
//     dialing, and automatic redial (exponential backoff + jitter) when
//     a connection breaks. Every connection is an HTTP/1.1 pipeline; a
//     Call uses it at depth 1, CallAsync as deep as PipelineDepth.
//   - Templates: a sharded store (see shardedStore) so templates are
//     owned by the runtime, not by goroutines — a new worker's first
//     call of an operation another worker has already sent starts warm
//     instead of paying a first-time send.
//   - Observability: an atomic Metrics registry counting match-class
//     rates, bytes saved by diffing, shift/steal events, pool health
//     and latency, exposed as an expvar-style JSON endpoint.
package pool

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// Options configure a Pool.
type Options struct {
	// Addr is the endpoint to dial (lazily, one connection per pool
	// slot as load requires).
	Addr string
	// Sender configures the HTTP framing of pooled connections; its
	// Dialer is the one seam for connections that are not plain TCP
	// (fault injection, a throttled link, tests). ExpectResponse governs
	// a sender's bare sends, which the pool does not use: every pooled
	// request goes through Sender.Submit, which always queues it for its
	// response. Depth is set from PipelineDepth and Delta from Delta. A
	// zero ReadTimeout or WriteTimeout is 10 s, so a peer that never
	// answers fails the call (errors_by_kind.deadline) instead of
	// hanging it.
	Sender transport.SenderOptions

	// Size bounds concurrent connections (default 4).
	Size int
	// Config tunes the connection slots' stubs, which serialize every
	// call. The template store keeps replica.TemplatesPerOp signatures
	// per operation, and a doorkeeper of that size admits new ones (see
	// README "Sizing template memory").
	Config core.Config
	// Replicas bounds per-(operation,signature) engine replicas
	// (default 4): the parallelism ceiling for a single hot operation.
	Replicas int
	// MaxTemplateBytes budgets the template store's memory: the sum of
	// all replica sets' template footprints is kept at or below it by
	// evicting least-recently-used entries (with per-operation fairness
	// floors). Zero leaves template memory bounded only by the
	// per-operation count caps. See README "Sizing template memory".
	MaxTemplateBytes int64

	// MaxRetries is how many times a Call is retried on a send error
	// after repairing the connection (default 1). The engine preserves
	// dirty bits across failed sends, so retries re-serialize exactly
	// the pending changes.
	MaxRetries int
	// DialAttempts bounds connection-repair attempts per Call (default
	// 4), spaced by RedialBackoff doubling up to RedialBackoffMax with
	// 50% jitter (defaults 20ms / 1s).
	DialAttempts     int
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// RetryBudget bounds the total wall-clock one Call may spend on
	// connection repair, backoff sleeps and retries (default 10s).
	// Together with MaxRetries and DialAttempts it makes every failure
	// path bounded in both count and time: when the budget runs out the
	// Call fails with errRetryBudgetExhausted instead of redialing on.
	RetryBudget time.Duration

	// PipelineDepth bounds the requests each pool connection keeps in
	// flight (HTTP/1.1 pipelining — responses arrive strictly in request
	// order); values below 1 mean 1. Every connection is such a
	// pipeline: Call holds its connection until its response is in,
	// so only CallAsync, which hands the connection back once the
	// request is written, fills a deeper one. The server must respond:
	// every pooled request reads exactly one response, whatever
	// Sender.ExpectResponse says. It is each connection's
	// SenderOptions.Depth.
	PipelineDepth int

	// Delta turns on differential transmission: full sends negotiate an
	// X-BSoap-Delta sync with the server, after which warm content-match
	// calls go out as compact patch frames instead of full bodies.
	// Negotiation rides on the responses every pooled request reads. It
	// is each connection's SenderOptions.Delta.
	Delta bool
}

// storeShards is the template store's shard count, as many as the
// server runtime's replica registry has.
const storeShards = 16

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 4
	}
	if o.Replicas <= 0 {
		o.Replicas = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 1
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 4
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 20 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 10 * time.Second
	}
	o.Sender.ReadTimeout = cmp.Or(o.Sender.ReadTimeout, 10*time.Second)
	o.Sender.WriteTimeout = cmp.Or(o.Sender.WriteTimeout, 10*time.Second)
	o.PipelineDepth = max(1, o.PipelineDepth)
	return o
}

// Pool is a concurrent differential-serialization client. All Pool
// methods are safe for concurrent use by any number of goroutines.
//
// Messages are not: a *wire.Message carries unsynchronized values and
// dirty bits, so each message must be confined to one in-flight Call at
// a time. Goroutines share the Pool (and through it the templates), not
// message objects — give each worker its own messages, as the loadgen
// and the stress tests do. Distinct messages may be passed to Call
// concurrently without restriction.
type Pool struct {
	opts    Options
	senders *senderPool
	store   *shardedStore
	metrics *Metrics
}

// New builds a Pool. Connections are not established until calls need
// them.
func New(opts Options) (*Pool, error) {
	o := opts.withDefaults()
	if o.Addr == "" {
		return nil, fmt.Errorf("pool: Options.Addr required")
	}
	o.Sender.Delta = o.Delta
	o.Sender.Depth = o.PipelineDepth
	addr, sopts := o.Addr, o.Sender
	m := newMetrics()
	dial := func() (*transport.Sender, error) {
		s, err := transport.Dial(addr, sopts)
		if err == nil {
			s.OnStall = func() { m.c[cPipelineStalls].Add(1) }
			s.OnComplete = func() { m.c[cResolved].Add(1) }
		}
		return s, err
	}
	m.c[cPipelineDepth].Store(int64(o.PipelineDepth))
	return &Pool{
		opts:    o,
		senders: newSenderPool(o.Size, dial, o, m),
		store:   newShardedStore(storeShards, o.Replicas, o.MaxTemplateBytes, m),
		metrics: m,
	}, nil
}

// errRetryBudgetExhausted is wrapped by Call when a call's repair/retry
// work exceeds Options.RetryBudget: the failure is bounded in wall-clock,
// not just attempt count.
var errRetryBudgetExhausted = fmt.Errorf("pool: retry budget exhausted")

// Call serializes and sends m through a pooled connection, reusing the
// shared template for m's operation and structure, and returns once its
// response has been read. The connection stays checked out to the call
// until then, so a Call is a depth-1 use of the connection and
// allocates nothing.
//
// A failed write, or a response lost with its connection, is repaired
// (redial with backoff) and the call retried on the connection it
// holds, up to MaxRetries times and all within the RetryBudget
// wall-clock bound, before the error is returned. Bytes whose delivery
// is unconfirmed mark their template suspect, so the retry (or the
// structure's next call) degrades to a full first-time serialization
// rather than trusting possibly half-delivered bytes. A non-2xx response
// arrived whole on a healthy connection: it fails the call and marks
// the template suspect, with no redial and no retry. A refused patch
// frame is resent in full on the same connection and reported as
// DeltaResync.
//
// Call is safe for concurrent use with distinct messages; a given
// message must not have two Calls in flight at once (see Pool).
func (p *Pool) Call(m *wire.Message) (core.CallInfo, error) {
	sub := p.open()
	if sub.err == nil {
		p.submit(m, &sub, &sub.ps.pd)
	}
	return p.finish(m, sub)
}

// submission is one call between open and finish. It travels by value:
// a Call never puts it on the heap, CallAsync boxes it into a Future.
type submission struct {
	ci       core.CallInfo
	err      error // why the call failed; before finish, why the request never got onto the wire
	span     uint64
	start    time.Time
	deadline time.Time // start plus the RetryBudget
	retries  int
	// ps is the slot the call holds: a Call's from open to finish, a
	// Future's only while it writes (nil after).
	ps *pooledSender

	// When err is nil: pd resolves with the response, submitted is when
	// the request was fully written (submitted→resolved is the call's
	// wire stage), and r holds the template to suspect if the response
	// fails (nil for a call served from scratch, which has none).
	pd        *transport.Pending
	submitted time.Time
	r         *engine
}

// open starts a call: its clock, its retry deadline and its first
// attempt.
func (p *Pool) open() submission {
	start := p.senders.now()
	sub := submission{start: start, deadline: start.Add(p.opts.RetryBudget)}
	p.attempt(&sub, start)
	return sub
}

// attempt opens one attempt of a call at time start: a flight-recorder
// span of its own and, unless the call already holds one, a checked-out
// slot.
func (p *Pool) attempt(sub *submission, start time.Time) {
	sub.span = 0
	if trace.Enabled() {
		sub.span = trace.BeginSpan()
	}
	if sub.ps != nil {
		return
	}
	ps, waited, err := p.senders.checkout()
	if err != nil {
		sub.err = err
		return
	}
	sub.ps = ps
	p.metrics.Stages.Observe(trace.StageCheckout, p.senders.now().Sub(start).Nanoseconds(), sub.span)
	if sub.span != 0 {
		w := int64(0)
		if waited {
			w = 1
		}
		trace.Rec(sub.span, trace.KindPoolCheckout, w, 0, 0)
	}
}

// submit is the one way a request is written: repair the held slot's
// connection, acquire a template replica, run the engine through the
// slot's sender, release, and retry a failed write within MaxRetries
// and the RetryBudget, attributing the time to its stages. On success pd
// is queued on the sender and resolves with the response; finish waits
// for it.
func (p *Pool) submit(m *wire.Message, sub *submission, pd *transport.Pending) {
	ps, span := sub.ps, sub.span
	for {
		// Repair the connection before taking a template replica, so
		// redial backoff sleeps never hold a replica lock: other callers
		// of the same hot operation proceed through healthy pool slots
		// while this one dials. The replica is likewise released before
		// any retry's repair; the retry finds it again through the binding,
		// unless another message took it over meanwhile.
		s, err := p.senders.ensure(ps, sub.deadline, span)
		if err != nil {
			sub.err = err
			return
		}
		// The slot's stub serializes through the engine's template, or
		// from scratch when the store refuses the call one (r nil).
		r := p.store.acquire(m)
		ps.sink = callSink{conn: s, pd: pd}
		if span != 0 {
			ps.stub.SetTraceSpan(span)
		}
		p.metrics.c[cAsyncCalls].Add(1)
		callStart := p.senders.now()
		var recharge bool
		sub.ci, recharge, err = ps.serve(r, m)
		written := p.senders.now()
		callNs := written.Sub(callStart).Nanoseconds()
		queueNs := ps.sink.ns
		ps.sink = callSink{}
		if r != nil {
			p.store.release(r, recharge)
		}
		if err == nil {
			// Attribute the stub's Call time: inside Submit is queue
			// (depth stall plus write); patch-frame assembly is delta
			// encode; the rest is serialization work.
			p.metrics.Stages.Observe(trace.StageSerialize, callNs-queueNs-sub.ci.DeltaEncodeNs, span)
			p.metrics.Stages.Observe(trace.StagePipelineQueue, queueNs, span)
			if sub.ci.DeltaEncodeNs > 0 {
				p.metrics.Stages.Observe(trace.StageDeltaEncode, sub.ci.DeltaEncodeNs, span)
			}
			sub.pd, sub.submitted, sub.r = pd, written, r
			if span != 0 {
				trace.Rec(span, trace.KindAsyncSubmit, trace.OpID(m.Operation()), int64(s.InFlight()), 0)
			}
			return
		}
		// The write failed, so pd was never queued to resolve, and the
		// sender is broken: ensure redials it.
		p.metrics.c[cAsyncCalls].Add(-1)
		if sub.err = p.retry(sub, err); sub.err != nil {
			return
		}
	}
}

// retry decides whether a call may try again after err: nil when
// attempts and budget remain (the retry is counted), else the error the
// call fails with.
func (p *Pool) retry(sub *submission, err error) error {
	if sub.retries >= p.opts.MaxRetries {
		return err
	}
	if !p.senders.now().Before(sub.deadline) {
		return fmt.Errorf("pool: send failed and no budget to retry: %w (last error: %v)",
			errRetryBudgetExhausted, err)
	}
	sub.retries++
	p.metrics.c[cRetries].Add(1)
	if sub.span != 0 {
		trace.Rec(sub.span, trace.KindPoolRetry, int64(sub.retries), 0, 0)
	}
	return nil
}

// finish is the tail every call ends in — on the caller's goroutine for
// Call, on the first waiter's for a Future: wait for the response,
// recover from a refused patch or (holding the slot) a lost response,
// check a held slot back in, account the call.
func (p *Pool) finish(m *wire.Message, sub submission) (core.CallInfo, error) {
	var now time.Time // when the last response was read; zero if the call went on after it
	for pd := sub.pd; pd != nil; pd = sub.pd {
		err := pd.Wait()
		now = p.senders.now()
		sub.pd = nil
		if err == nil {
			p.metrics.Stages.Observe(trace.StageWire, now.Sub(sub.submitted).Nanoseconds(), sub.span)
		}
		if sub.span != 0 {
			ok := int64(1)
			if err != nil {
				ok = 0
			}
			trace.Rec(sub.span, trace.KindAsyncComplete, ok, int64(now.Sub(sub.start)), 0)
		}
		switch {
		case errors.Is(err, wire.ErrDeltaResync):
			// The server refused this call's patch frame and demands a
			// full body. The response was read in order and the connection
			// is healthy, so this is a protocol state mismatch, not a
			// delivery failure: the template is NOT suspect (its bytes
			// match what the diff computed — the server just lost its
			// base). Reading the refusal already cleared the sender's
			// sync map, so the resubmission cannot encode another patch,
			// and a full send never draws a resync: that bounds the loop.
			// pd has resolved, so the resubmission reuses it, as a new
			// attempt on the slot a Call holds, or on one checked out for
			// a Future.
			refused := sub.ci
			sub.ci = core.CallInfo{}
			if sub.span != 0 {
				trace.Rec(sub.span, trace.KindDeltaResync, 0, int64(refused.WireBytes), 0)
			}
			held := sub.ps != nil
			if p.attempt(&sub, now); sub.err == nil {
				p.submit(m, &sub, pd)
			}
			now = time.Time{}
			if !held && sub.ps != nil {
				p.senders.checkin(sub.ps)
				sub.ps = nil
			}
			sub.ci = resent(refused, sub.ci)
		case err != nil:
			// The bytes left this client but their delivery is
			// unconfirmed: the structure's next call must not diff
			// against them. (m is still as it was submitted: a message is
			// not touched until its call has resolved.)
			p.store.markSuspect(sub.r, m.Operation(), sub.span)
			if sub.ps != nil && sub.ps.sender.Broken() {
				// A Call lost its response with the connection: repaired
				// and resent on the slot it holds, a degraded first-time
				// send. (A non-2xx leaves the sender healthy and is not
				// retried; a Future's is not either, since requests behind
				// it may already be on the wire.)
				if err = p.retry(&sub, err); err == nil {
					p.submit(m, &sub, pd)
					now = time.Time{}
					continue
				}
			}
			sub.err = fmt.Errorf("pool: call: %w", err)
		}
	}
	if sub.ps != nil {
		p.senders.checkin(sub.ps)
	}
	if errors.Is(sub.err, errRetryBudgetExhausted) {
		p.metrics.c[cRetryBudgetExhausted].Add(1)
	}
	if sub.span != 0 && sub.err != nil && sub.ci.Span == 0 {
		// The call never reached the engine (no healthy connection):
		// close the span from the pool layer. A=-1 marks "no match
		// classification happened".
		trace.Rec(sub.span, trace.KindCallErr, -1, 0, 0)
	}
	if now.IsZero() {
		now = p.senders.now()
	}
	elapsed := now.Sub(sub.start)
	p.metrics.RecordCall(sub.ci, sub.err, elapsed)
	if sub.span != 0 && sub.err == nil {
		trace.ObserveCall(sub.span, int64(elapsed))
	}
	return sub.ci, sub.err
}

// resent folds a refused patch attempt and its full-body resubmission
// into the one call the caller made, as a bare stub reports it when it
// resends inside Call: the first attempt's classification and work, the
// refused frame and the full body both on the wire. The resubmission
// normally converts nothing; what it rewrote when it landed on another
// replica is this call's work too.
func resent(refused, full core.CallInfo) core.CallInfo {
	ci := refused
	ci.Span = full.Span
	ci.DeltaSent, ci.DeltaResync = false, true
	ci.WireBytes += full.WireBytes
	ci.BytesSerialized += full.BytesSerialized
	ci.ValuesRewritten += full.ValuesRewritten
	ci.TagShifts += full.TagShifts
	ci.Shifts += full.Shifts
	ci.Steals += full.Steals
	ci.Grows += full.Grows
	ci.Splits += full.Splits
	return ci
}

// Metrics exposes the pool's registry (for serving the JSON endpoint).
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Stats snapshots the registry.
func (p *Pool) Stats() Stats { return p.metrics.Snapshot() }

// TemplateCount reports templates resident across all shards.
func (p *Pool) TemplateCount() int { return p.store.templateCount() }

// Entries reports distinct (operation, signature) keys seen.
func (p *Pool) Entries() int { return p.store.entries() }

// DebugTemplates snapshots the live template store in the uniform
// client/server dump format (see shardedStore.debugSnapshot).
func (p *Pool) DebugTemplates() replica.Dump { return p.store.debugSnapshot() }

// Close shuts the pool down: blocked and future checkouts fail, idle
// connections close now, checked-out ones as they return.
func (p *Pool) Close() error {
	p.senders.close()
	return nil
}
