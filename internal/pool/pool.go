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
//     a connection breaks mid-send.
//   - Templates: a sharded store (see shardedStore) so templates are
//     owned by the runtime, not by goroutines — a new worker's first
//     call of an operation another worker has already sent starts warm
//     instead of paying a first-time send.
//   - Observability: an atomic Metrics registry counting match-class
//     rates, bytes saved by diffing, shift/steal events, pool health
//     and latency, exposed as an expvar-style JSON endpoint.
package pool

import (
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
	// Sender configures the HTTP framing of pooled connections.
	Sender transport.SenderOptions
	// Dial overrides Addr with a custom connection factory (tests,
	// in-process benchmarking). The returned sink is closed on pool
	// shutdown when it implements io.Closer.
	Dial func() (core.Sink, error)

	// Size bounds concurrent connections (default 4).
	Size int
	// Config tunes the differential-serialization engines.
	Config core.Config
	// Shards is the template-store shard count (default 16).
	Shards int
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

	// PipelineDepth enables the pipelined async call path: each pool
	// connection keeps up to this many requests in flight (HTTP/1.x
	// pipelining — responses arrive strictly in request order), CallAsync
	// returns Futures, and Call routes through CallAsync + Wait. Zero
	// (the default) keeps the serial request/response path.
	//
	// Requires a dialed transport (Options.Addr) and a responding server:
	// every pipelined request reads exactly one response, regardless of
	// Sender.ExpectResponse. Incompatible with Options.Dial.
	PipelineDepth int

	// Delta turns on differential transmission (shorthand for
	// Sender.Delta): full sends negotiate an X-BSoap-Delta sync with the
	// server, after which warm content-match calls go out as compact
	// patch frames instead of full bodies. Negotiation rides on
	// responses, so Delta also turns on Sender.ExpectResponse.
	Delta bool
}

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 4
	}
	if o.Shards <= 0 {
		o.Shards = 16
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
	if o.Delta {
		o.Sender.Delta = true
		o.Sender.ExpectResponse = true
	}
	dial := o.Dial
	if dial == nil {
		if o.Addr == "" {
			return nil, fmt.Errorf("pool: Options.Addr or Options.Dial required")
		}
		addr, sopts := o.Addr, o.Sender
		dial = func() (core.Sink, error) { return transport.Dial(addr, sopts) }
	} else if o.PipelineDepth > 0 {
		return nil, fmt.Errorf("pool: Options.PipelineDepth requires a dialed transport (Options.Addr, not Options.Dial)")
	}
	m := newMetrics()
	m.pipelineDepth.Store(int64(o.PipelineDepth))
	return &Pool{
		opts:    o,
		senders: newSenderPool(o.Size, dial, o, m),
		store:   newShardedStore(o.Shards, o.Replicas, o.MaxTemplateBytes, o.Config, m),
		metrics: m,
	}, nil
}

// errRetryBudgetExhausted is wrapped by Call when a call's repair/retry
// work exceeds Options.RetryBudget: the failure is bounded in wall-clock,
// not just attempt count.
var errRetryBudgetExhausted = fmt.Errorf("pool: retry budget exhausted")

// Call serializes and sends m through a pooled connection, reusing the
// shared template for m's operation and structure. On a send error the
// connection is repaired (redial with backoff) and the call retried up
// to MaxRetries times — all within the RetryBudget wall-clock bound —
// before the error is returned. A send that fails mid-template marks
// that template suspect in the engine; the retry (or the structure's
// next call) degrades to a full first-time serialization rather than
// trusting possibly half-delivered bytes.
//
// Call is submit, then finish, on the caller's goroutine: a serial pool
// reads the response inline during the submit, a pipelined one waits
// for it in finish (see CallAsync for that path's failure modes).
//
// Call is safe for concurrent use with distinct messages; a given
// message must not have two Calls in flight at once (see Pool).
func (p *Pool) Call(m *wire.Message) (core.CallInfo, error) {
	return p.finish(m, p.submit(m, nil))
}

// submission is one call between submit and finish. It travels by value:
// a serial Call never puts it on the heap, CallAsync boxes it into a
// Future.
type submission struct {
	ci    core.CallInfo
	err   error // why the request never got onto the wire
	span  uint64
	start time.Time

	// Pipelined pools only, when err is nil: pd resolves with the
	// response, submitted is when the request was fully written
	// (submitted→resolved is the call's wire stage), and r holds the
	// template to suspect if the response fails.
	pd        *transport.Pending
	submitted time.Time
	r         *engine
}

// submit is the one call path: check a connection out, then repair it,
// acquire a template replica, run the engine against the connection,
// release, and retry within MaxRetries and the RetryBudget, attributing
// the time to its stages. Serial, pipelined and delta calls are
// parameters of it — which sink the engine writes through, and whether
// the response was read inside the engine's send or is still pending
// in pd (a Future's, else new) at return. The accounting is finish's.
func (p *Pool) submit(m *wire.Message, pd *transport.Pending) submission {
	sub := submission{start: p.senders.now()}
	deadline := sub.start.Add(p.opts.RetryBudget)
	if trace.Enabled() {
		sub.span = trace.BeginSpan()
	}
	span := sub.span
	ps, waited, err := p.senders.checkout()
	if err != nil {
		sub.err = err
		return sub
	}
	p.metrics.Stages.Observe(trace.StageCheckout, p.senders.now().Sub(sub.start).Nanoseconds(), span)
	if span != 0 {
		w := int64(0)
		if waited {
			w = 1
		}
		trace.Rec(span, trace.KindPoolCheckout, w, 0, 0)
	}

	pipelined := p.opts.PipelineDepth > 0
	if pipelined && pd == nil {
		pd = new(transport.Pending)
	}
	for attempt := 0; ; attempt++ {
		// Repair the connection before taking a template replica, so
		// redial backoff sleeps never hold a replica lock: other callers
		// of the same hot operation proceed through healthy pool slots
		// while this one dials. The replica is likewise released before
		// any retry's repair; the retry finds it again through the binding,
		// unless another message took it over meanwhile.
		var sink core.Sink
		sink, err = p.connect(ps, deadline, span)
		if err != nil {
			break
		}
		r := p.store.acquire(m)
		r.sink = callSink{s: sink, pl: ps.pipeline, pd: pd}
		if span != 0 {
			r.stub.SetTraceSpan(span)
		}
		if pipelined {
			p.metrics.futuresPending.Add(1)
		}
		callStart := p.senders.now()
		sub.ci, err = r.stub.Call(m)
		callNs := p.senders.now().Sub(callStart).Nanoseconds()
		sent := r.sink
		p.store.release(r)
		if err == nil {
			// Attribute the stub's Call time: inside the transport is wire
			// when the response was read there, pipeline queue when only
			// the write happened; patch-frame assembly is delta encode; the
			// rest is serialization work.
			inTransport := trace.StageWire
			if pipelined {
				inTransport = trace.StagePipelineQueue
			}
			p.metrics.Stages.Observe(trace.StageSerialize, callNs-sent.ns-sub.ci.DeltaEncodeNs, span)
			p.metrics.Stages.Observe(inTransport, sent.ns, span)
			if sub.ci.DeltaEncodeNs > 0 {
				p.metrics.Stages.Observe(trace.StageDeltaEncode, sub.ci.DeltaEncodeNs, span)
			}
			if pipelined {
				sub.pd, sub.submitted, sub.r = pd, p.senders.now(), r
				p.metrics.asyncCalls.Add(1)
				if span != 0 {
					trace.Rec(span, trace.KindAsyncSubmit, trace.OpID(m.Operation()), int64(sent.pl.InFlight()), 0)
				}
			}
			break
		}
		if pipelined {
			// The write failed, so pd was never queued to resolve and
			// decrement the gauge.
			p.metrics.futuresPending.Add(-1)
		}
		ps.broken = true
		if attempt >= p.opts.MaxRetries {
			break
		}
		if !p.senders.now().Before(deadline) {
			err = fmt.Errorf("pool: send failed and no budget to retry: %w (last error: %v)",
				errRetryBudgetExhausted, err)
			break
		}
		p.metrics.retries.Add(1)
		if span != 0 {
			trace.Rec(span, trace.KindPoolRetry, int64(attempt+1), 0, 0)
		}
	}
	p.senders.checkin(ps)
	sub.err = err
	return sub
}

// connect hands back a healthy connection for the slot (on a pipelined
// pool with a healthy ps.pipeline over it), dialing or repairing within
// deadline.
func (p *Pool) connect(ps *pooledSender, deadline time.Time, span uint64) (core.Sink, error) {
	if ps.pipeline != nil && (ps.broken || ps.pipeline.Broken()) {
		// The old pipeline must fully wind down, failing any still-queued
		// pendings, before the connection is repaired underneath it: a
		// waiter reading through it shares the sender's buffered reader,
		// which Redial resets.
		_ = ps.pipeline.Close()
		ps.pipeline = nil
		ps.broken = true // the connection was closed with it: ensure redials
	}
	// The connection's X-BSoap-Trace header and its redial and deadline
	// events carry this call's span (or none): set before ensure so a
	// repair redial is attributed, and after it for a fresh dial.
	attribute(ps.sink, span)
	sink, err := p.senders.ensure(ps, deadline)
	if err != nil {
		return nil, err
	}
	attribute(sink, span)
	if p.opts.PipelineDepth > 0 && ps.pipeline == nil {
		// New admits PipelineDepth only over the pool's own dialer, so the
		// sink is a dialed Sender.
		pl := transport.NewPipeline(sink.(*transport.Sender), p.opts.PipelineDepth)
		pl.OnStall = func() { p.metrics.pipelineStalls.Add(1) }
		pl.OnComplete = func() { p.metrics.futuresPending.Add(-1) }
		ps.pipeline = pl
	}
	return sink, nil
}

func attribute(s core.Sink, span uint64) {
	if ts, ok := s.(*transport.Sender); ok {
		ts.TraceSpan = span
	}
}

// finish is the tail every call ends in — on the caller's goroutine for
// Call, on the first waiter's for a Future: wait for a pipelined
// response, recover from a refused patch, account the call.
func (p *Pool) finish(m *wire.Message, sub submission) (core.CallInfo, error) {
	start := sub.start
	for pd := sub.pd; pd != nil; pd = sub.pd {
		err := pd.Wait()
		now := p.senders.now()
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
			// pd has resolved, so the resubmission reuses it.
			refused := sub.ci
			if sub.span != 0 {
				trace.Rec(sub.span, trace.KindDeltaResync, 0, int64(refused.WireBytes), 0)
			}
			sub = p.submit(m, pd)
			sub.ci = resent(refused, sub.ci)
		case err != nil:
			// The bytes left this client but their delivery is
			// unconfirmed: the structure's next call must not diff
			// against them. (m is still as it was submitted: a message is
			// not touched until its call has resolved.)
			p.store.markSuspect(sub.r, m.Operation(), m.Signature(), sub.span)
			sub.err = fmt.Errorf("pool: pipelined call: %w", err)
		}
	}
	if errors.Is(sub.err, errRetryBudgetExhausted) {
		p.metrics.retryBudgetExhausted.Add(1)
	}
	if sub.span != 0 && sub.err != nil && sub.ci.Span == 0 {
		// The call never reached the engine (no healthy connection):
		// close the span from the pool layer. A=-1 marks "no match
		// classification happened".
		trace.Rec(sub.span, trace.KindCallErr, -1, 0, 0)
	}
	elapsed := p.senders.now().Sub(start)
	p.metrics.RecordCall(sub.ci, sub.err, elapsed)
	if sub.span != 0 && sub.err == nil {
		trace.ObserveCall(sub.span, int64(elapsed))
	}
	return sub.ci, sub.err
}

// resent folds a refused patch attempt and its full-body resubmission
// into the one call the caller made, as a serial call reports it when
// the stub resends inside Call: the first attempt's classification and
// work, the refused frame and the full body both on the wire. The
// resubmission normally converts nothing; what it rewrote when it
// landed on another replica is this call's work too.
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
