// Package serverpool is the SOAP service endpoint: it dispatches
// incoming envelopes to registered operations, decoding each
// differentially (a full schema-driven parse where no template serves
// it), and serializes responses through a differential stub (the paper:
// the technique "could be used equally well by a server sending
// identical (or similar) responses").
//
// Runtime keeps a pool of per-connection (or per-client) replicas, each
// with one store of request bodies — the delta keeper, holding a body and
// its decode template under the client's template id, or, for a request
// that names none, under an id derived from its operation and length —
// a response stub, and per operation a handler instance holding one
// response template, as a client pool engine holds one — the server-side
// mirror of the client pool's sharded store.
// Requests from the same connection land on the same replica, so its
// templates track that client's message shapes: concurrent clients do
// not thrash a shared template set, and decodes proceed in parallel with
// no cross-connection lock. One connection id for every request makes it
// a single locked endpoint.
//
// Replicas live in the unified replica registry (internal/replica),
// which owns sharding, the recency list, in-flight refcounts and the
// MaxTemplateBytes budget; this package owns what is server-specific —
// the decode fast path, handler dispatch and response serialization.
package serverpool

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/multiref"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Handler processes one decoded request message and returns a response
// message, or nil for one-way operations. The request message is owned
// by the runtime and valid only for the duration of the call.
type Handler func(req *wire.Message) (*wire.Message, error)

// HandlerFactory builds one handler instance. Each replica gets its own
// instance, so handlers may keep per-instance state — in particular a
// reused response wire.Message, which is exactly what makes the
// response-side differential stub effective and is not safe to share
// across replicas. The replica holds one response template per handler
// instance: a response of another shape than the last replaces it
// through a first-time send.
type HandlerFactory func() Handler

// Options configure a Runtime.
type Options struct {
	// DifferentialDeserialization is ignored: every replica decodes
	// differentially, the fast path tried before a full schema-driven
	// parse.
	DifferentialDeserialization bool
	// Core configures each replica's response-side differential stub.
	Core core.Config
	// MaxReplicas bounds resident replicas across all shards (default
	// 256). The bound is enforced per shard as max(1,
	// MaxReplicas/registryShards) with LRU eviction, mirroring the client
	// pool's store.
	MaxReplicas int
	// MaxTemplateBytes budgets the replicas' aggregate template memory
	// (each replica's held request bodies with their decode templates,
	// and its response templates): the registry evicts
	// least-recently-used replicas to stay at or below it. Zero leaves
	// memory bounded only by MaxReplicas and each replica's caps: 32 held
	// request bodies, replica.TemplatesPerOp decode templates per
	// operation. See README "Sizing template memory".
	MaxTemplateBytes int64
	// SelfCheck re-decodes every differential fast-path result with a
	// from-scratch parse and compares leaf values — the conformance
	// paranoid mode. A mismatch fails the request and is counted.
	SelfCheck bool
	// Delta accepts differential-transmission requests: sync-annotated
	// full bodies that decode are stored as per-replica patch bases (and
	// acknowledged, which is what turns the client's patch sends on),
	// and patch frames are applied to the held base, which is then
	// decoded from the frame's own regions.
	// Any mismatch is answered 409/resync and the client falls back to a
	// full-body send — off or on, reconstructed bodies are byte-identical
	// to what the client would have sent in full.
	Delta bool
	// Metrics receives the runtime's counters, and Stats reads them back
	// from it; nil gets a private registry. Pass the same registry as the
	// transport.Server to export everything on one /metrics page.
	Metrics *transport.ServerMetrics
}

// registryShards is the number of replica-registry shards. More shards
// means less registry-lock contention; replicas themselves are never
// shared across requests of different connections.
const registryShards = 16

// Runtime dispatches SOAP requests across replicas, each a request-body
// keeper and a response stub. Register all operations before serving;
// Register is not safe to call concurrently with request handling.
type Runtime struct {
	opts    Options
	metrics *transport.ServerMetrics
	ops     map[string]*operation
	reg     *reg.Registry[*replica]

	wsdl atomic.Pointer[[]byte] // nil until SetWSDL
}

type operation struct {
	schema  *soapdec.Schema
	factory HandlerFactory
	id      uint32 // the operation's number in the ids of its unnamed bodies
}

// Stats is a point-in-time snapshot of runtime counters, read from the
// runtime's metrics registry (Options.Metrics).
type Stats struct {
	Requests         int64
	FullParses       int64
	DiffDecodes      int64
	ValuesReparsed   int64
	MultiRefInlined  int64
	SelfCheckFails   int64
	Replicas         int // currently resident
	ReplicaEvictions int64
	// DDSKeyEvictions is always 0: no decode state is keyed by anything
	// but a registered operation or a template id.
	DDSKeyEvictions int64

	// Differential transmission: patch frames applied, full bodies stored
	// as bases, and 409/resync answers.
	DeltaApplied int64
	DeltaSyncs   int64
	DeltaResyncs int64
}

// New returns an empty runtime.
func New(opts Options) *Runtime { return newRuntime(opts, registryShards) }

// newRuntime is New over a registry of the given shard count: tests
// use one or two shards to make eviction order deterministic.
func newRuntime(opts Options, shards int) *Runtime {
	maxReplicas := opts.MaxReplicas
	if maxReplicas <= 0 {
		maxReplicas = 256
	}
	m := opts.Metrics
	if m == nil {
		m = transport.NewServerMetrics()
	}
	rt := &Runtime{
		opts:    opts,
		metrics: m,
		ops:     make(map[string]*operation),
	}
	rt.reg = reg.NewRegistry(reg.RegistryOptions[*replica]{
		Shards:     shards,
		MaxEntries: maxReplicas,
		MaxBytes:   opts.MaxTemplateBytes,
		New:        func(reg.Key) *replica { return rt.newReplica() },
		OnEvict: func(key reg.Key, reason reg.Reason, bytes int64) {
			// The evicted replica is not torn down here: a request
			// already holding it finishes normally, and the registry
			// releases its arenas after the last in-flight reference.
			m.RecordReplicaEviction(reason == reg.ReasonBudget)
			if trace.Enabled() {
				trace.Rec(0, trace.KindReplicaEvict, trace.OpID(key.String()), int64(reason), bytes)
			}
		},
	})
	m.SetTemplateSource(rt.reg.Counters)
	return rt
}

// Register adds an operation. The factory runs once per replica that
// sees the operation. Not safe concurrently with request handling.
func (rt *Runtime) Register(schema *soapdec.Schema, factory HandlerFactory) {
	rt.ops[schema.Op] = &operation{schema: schema, factory: factory, id: uint32(len(rt.ops))}
}

func (rt *Runtime) lookupSchema(opLocal string) (*soapdec.Schema, bool) {
	op, ok := rt.ops[opLocal]
	if !ok {
		return nil, false
	}
	return op.schema, true
}

// SetWSDL installs the service description served on GET requests.
func (rt *Runtime) SetWSDL(doc []byte) {
	doc = append([]byte(nil), doc...)
	rt.wsdl.Store(&doc)
}

// Stats returns runtime counters. The runtime counts into its metrics
// registry only, so a registry shared with other runtimes reports their
// requests too.
func (rt *Runtime) Stats() Stats {
	m := rt.metrics.Snapshot()
	return Stats{
		Requests:         m.DecodedRequests,
		FullParses:       m.DDSFullParses,
		DiffDecodes:      m.DDSFastPath,
		ValuesReparsed:   m.DDSValuesReparsed,
		MultiRefInlined:  m.MultiRefInlined,
		SelfCheckFails:   m.SelfCheckFails,
		Replicas:         rt.reg.Len(),
		ReplicaEvictions: m.ReplicaEvictions,
		DeltaApplied:     m.DeltaApplied,
		DeltaSyncs:       m.DeltaSyncs,
		DeltaResyncs:     m.DeltaResyncs,
	}
}

// ResponseStats sums the response stubs' differential counters across
// resident replicas (evicted replicas take their counts with them).
func (rt *Runtime) ResponseStats() core.Stats {
	var sum core.Stats
	rt.reg.Each(func(_ reg.Key, r *replica) {
		r.mu.Lock()
		cs := r.stub.Stats()
		r.mu.Unlock()
		sum.Calls += cs.Calls
		sum.FirstTimeSends += cs.FirstTimeSends
		sum.ContentMatches += cs.ContentMatches
		sum.StructuralMatches += cs.StructuralMatches
		sum.PartialMatches += cs.PartialMatches
		sum.FullSerializations += cs.FullSerializations
		sum.DegradedFTS += cs.DegradedFTS
		sum.BytesSent += cs.BytesSent
		sum.BytesSerialized += cs.BytesSerialized
		sum.ValuesRewritten += cs.ValuesRewritten
		sum.TagShifts += cs.TagShifts
		sum.Shifts += cs.Shifts
		sum.Steals += cs.Steals
		sum.Grows += cs.Grows
		sum.Splits += cs.Splits
	})
	return sum
}

// DebugTemplates snapshots the replica registry in the uniform
// client/server dump format served by /debug/templates and read by
// `bsoap-inspect templates`. Each server entry is a single replica; the
// affinity column carries its conn:N key, and the refusals are the
// unnamed requests the replicas decoded without keeping them
// (diffdeser.Info.Refused), as counted by the server metrics.
func (rt *Runtime) DebugTemplates() reg.Dump {
	d := rt.reg.Dump("server", nil)
	d.Refused = rt.metrics.Snapshot().DDSRefused
	return d
}

// HTTPHandler adapts the runtime to the transport server: POSTs are
// dispatched as SOAP calls on the caller's replica, GETs answered with
// the WSDL when one is installed.
func (rt *Runtime) HTTPHandler() transport.Handler {
	return func(req *transport.Request) ([]byte, error) {
		if req.Method == "GET" {
			doc := rt.wsdl.Load()
			if doc == nil {
				return nil, fmt.Errorf("serverpool: no WSDL installed")
			}
			return *doc, nil
		}
		slot, r := rt.acquire(keyFor(req))
		defer rt.release(slot)
		return rt.handle(r, req)
	}
}

// Handle decodes and dispatches one envelope for the given connection
// identity, for callers not going through transport.Server. The replica
// is connID's; remoteAddr only rides on the request, as a Server's does.
func (rt *Runtime) Handle(connID uint64, remoteAddr string, body []byte) ([]byte, error) {
	req := &transport.Request{ConnID: connID, RemoteAddr: remoteAddr, Body: body}
	slot, r := rt.acquire(keyFor(req))
	defer rt.release(slot)
	return rt.handle(r, req)
}

// keyFor keys a request's replica by its connection: keep-alive clients
// (the paper's model) see perfect template locality, each replica has
// one request at a time, and the replica dies with the connection's LRU
// slot.
func keyFor(req *transport.Request) reg.Key {
	return reg.Key{Conn: req.ConnID}
}

// acquire returns the key's replica with its mutex held and an
// in-flight reference on its registry slot. Finding or creating the
// replica holds only registry locks; the replica lock is taken outside
// them, so a slow request on one replica never blocks lookups of its
// shard siblings.
func (rt *Runtime) acquire(key reg.Key) (*reg.Slot[*replica], *replica) {
	slot, _ := rt.reg.Acquire(key)
	r := slot.Value
	r.mu.Lock()
	return slot, r
}

// release re-accounts the replica's footprint into its cached size,
// unlocks it, and drops the registry reference — the budget-enforcement
// point, and, for an evicted replica, possibly the release that frees
// its arenas. Caller holds r.mu.
func (rt *Runtime) release(slot *reg.Slot[*replica]) {
	r := slot.Value
	r.size.Store(r.respBytes + r.bases.bytes)
	r.mu.Unlock()
	rt.reg.Release(slot)
}

func (rt *Runtime) newReplica() *replica {
	r := &replica{
		ops:   make(map[string]*replicaOp),
		bases: newKeeper(rt.lookupSchema, rt.metrics.RecordDeltaBaseEviction),
	}
	r.stub = core.NewStub(rt.opts.Core, &r.sink)
	return r
}

// handle runs one request on r: a patch frame is first applied to the
// base it names, then the request decoded, dispatched and answered. The
// response is serialized into req.Resp, valid until req is read into
// again. Caller holds r.mu. req.TraceSpan is the client's span id (0 =
// untraced caller): when present, every event this request records
// carries it, so `bsoap-inspect trace -correlate` can merge the two rings
// into one cross-process timeline.
func (rt *Runtime) handle(r *replica, req *transport.Request) ([]byte, error) {
	var patched *deltaBase
	if req.DeltaMode == transport.DeltaPatch {
		if !rt.opts.Delta {
			// A patch arrived but delta is off (e.g. disabled after a
			// restart): demand a full body rather than failing the call.
			rt.metrics.RecordDeltaResync()
			return nil, fmt.Errorf("serverpool: delta disabled: %w", wire.ErrDeltaResync)
		}
		start := time.Now()
		var err error
		if patched, err = r.bases.apply(req); err != nil {
			rt.metrics.RecordDeltaResync()
			return nil, err
		}
		rt.metrics.RecordDeltaApply(len(req.Body), len(patched.body))
		rt.metrics.Stages.Observe(trace.StageDeltaApply, time.Since(start).Nanoseconds(), req.TraceSpan)
	}
	rt.metrics.RecordDecodedRequest()

	var span uint64
	traced := trace.Enabled()
	if traced {
		if req.TraceSpan != 0 {
			// Adopt the client's span and link a server-local sub-span id
			// to it: the sub-span (A) disambiguates re-sent client spans,
			// the conn id (B) ties the timeline to a transport connection.
			span = req.TraceSpan
			trace.Rec(span, trace.KindServerSpan, int64(trace.BeginSpan()), int64(req.ConnID), 0)
		} else {
			span = trace.BeginSpan()
		}
	}
	decodeStart := time.Now()

	msg, body, info, err := rt.decode(r, req, patched)
	if err != nil {
		return nil, fmt.Errorf("serverpool: decode: %w", err)
	}
	rt.metrics.RecordDDSDecode(info)
	if traced {
		var fast int64
		if !info.FullParse {
			fast = 1
		}
		trace.Rec(span, trace.KindServerDecode, fast, int64(info.ValuesReparsed), int64(len(body)))
	}
	if rt.opts.SelfCheck && !info.FullParse {
		if err := rt.selfCheck(body, msg); err != nil {
			// The fast path served the base at the front: it holds
			// values its bytes do not say, so it goes.
			r.bases.dropFront()
			rt.metrics.RecordSelfCheckFail()
			return nil, err
		}
	}

	handlerStart := time.Now()
	decodeNs := handlerStart.Sub(decodeStart).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageDecode, decodeNs, span)

	opLocal := msg.Operation()
	op, ok := r.ops[opLocal]
	if !ok {
		o := rt.ops[opLocal]
		if o == nil {
			return nil, fmt.Errorf("serverpool: no handler for %s", opLocal)
		}
		op = &replicaOp{h: o.factory()}
		r.ops[opLocal] = op
	}
	resp, err := op.h(msg)
	respondStart := time.Now()
	handlerNs := respondStart.Sub(handlerStart).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageHandler, handlerNs, span)
	if err != nil {
		return nil, fmt.Errorf("serverpool: %s: %w", opLocal, err)
	}
	if resp == nil {
		return nil, nil
	}

	if span != 0 {
		// The response stub's serialization events join this request's
		// span instead of allocating their own.
		r.stub.SetTraceSpan(span)
	}
	r.sink.buf = req.Resp
	ci, err := r.respond(op, resp)
	req.Resp, r.sink.buf = r.sink.buf, nil
	respondNs := time.Since(respondStart).Nanoseconds()
	rt.metrics.Stages.Observe(trace.StageRespond, respondNs, span)
	if err != nil {
		return nil, fmt.Errorf("serverpool: response serialization: %w", err)
	}
	if traced {
		trace.Rec(span, trace.KindServerRespond, int64(ci.Match), int64(len(req.Resp)), 0)
	}
	return req.Resp, nil
}

// decode turns a request into its message against the one body the
// replica's keeper holds for it, and returns the body the message was
// decoded from. A request that names its template — a patch frame already
// applied to patched, or a delta sync — is decoded against the body held
// under that template id. Anything else — delta off, a peer that sends no
// id, a sync naming an id in the space the server derives its own from,
// a multi-ref body the server would have to rewrite before decoding —
// against the body held under the id derived from its operation and
// length, and is not acknowledged.
func (rt *Runtime) decode(r *replica, req *transport.Request, patched *deltaBase) (*wire.Message, []byte, diffdeser.Info, error) {
	body := req.Body
	full := diffdeser.Info{FullParse: true, Reason: diffdeser.ReasonNoTemplate}
	switch {
	case patched != nil:
		msg, info, err := r.bases.decodePatch(patched)
		return msg, patched.body, info, err
	case req.DeltaMode == transport.DeltaSync && rt.opts.Delta && req.DeltaTID&derived == 0 && !multiref.HasRefs(body):
		msg, info, err := r.bases.sync(req)
		if err == nil {
			rt.metrics.RecordDeltaSync(len(body))
		}
		return msg, body, info, err
	}

	if multiref.HasRefs(body) {
		inlined, err := multiref.Inline(body)
		if err != nil {
			return nil, nil, full, fmt.Errorf("multi-ref: %w", err)
		}
		body = inlined
		rt.metrics.RecordMultiRefInline()
	}
	// Hold it under a registered operation's id. A name no operation is
	// registered under keeps nothing: the full parse refuses the body, or
	// serves the operation the body really names when the peek was misled
	// (a comment ahead of the envelope), so a peer cannot choose the ids.
	name, err := peekOperation(body)
	if err != nil {
		return nil, nil, full, err
	}
	op := rt.ops[string(name)]
	if op == nil {
		msg, err := rt.fullParse(body)
		return msg, body, full, err
	}
	msg, info, err := r.bases.unnamed(op, body)
	return msg, body, info, err
}

// fullParse is the complete schema-driven parse, keeping nothing.
func (rt *Runtime) fullParse(body []byte) (*wire.Message, error) {
	res, err := soapdec.Decode(body, rt.lookupSchema, false)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

// peekOperation finds the operation's local name without a full parse —
// the first element inside <Body>, prefix stripped — and returns it as a
// view into body.
func peekOperation(body []byte) ([]byte, error) {
	var off int
	if idx := bytes.Index(body, []byte(":Body>")); idx >= 0 {
		off = idx + len(":Body>")
	} else if idx := bytes.Index(body, []byte("<Body>")); idx >= 0 {
		off = idx + len("<Body>")
	} else {
		return nil, fmt.Errorf("no SOAP Body")
	}
	rest := body[off:]
	i := 0
	for i < len(rest) && xsdlex.IsSpace(rest[i]) {
		i++
	}
	if i >= len(rest) || rest[i] != '<' {
		return nil, fmt.Errorf("no operation element")
	}
	i++
	start := i
	for i < len(rest) && rest[i] != '>' && rest[i] != '/' && !xsdlex.IsSpace(rest[i]) {
		i++
	}
	name := rest[start:i]
	if c := bytes.LastIndexByte(name, ':'); c >= 0 {
		name = name[c+1:]
	}
	if len(name) == 0 {
		return nil, fmt.Errorf("no operation element")
	}
	return name, nil
}

// selfCheck re-decodes body from scratch and compares every leaf with
// the fast-path result. The reference parse shares no state with the
// differential one, so agreement means the region diff reconstructed
// the exact message a cold parse would have produced.
func (rt *Runtime) selfCheck(body []byte, got *wire.Message) error {
	want, err := rt.fullParse(body)
	if err != nil {
		return fmt.Errorf("serverpool: self-check reference parse: %w", err)
	}
	if got.Operation() != want.Operation() {
		return fmt.Errorf("serverpool: self-check: operation %q != %q", got.Operation(), want.Operation())
	}
	if got.NumLeaves() != want.NumLeaves() {
		return fmt.Errorf("serverpool: self-check: %d leaves != %d", got.NumLeaves(), want.NumLeaves())
	}
	for i := 0; i < want.NumLeaves(); i++ {
		if got.LeafTag(i) != want.LeafTag(i) {
			return fmt.Errorf("serverpool: self-check: leaf %d tag %q != %q", i, got.LeafTag(i), want.LeafTag(i))
		}
		gk, wk := got.LeafType(i).Kind, want.LeafType(i).Kind
		if gk != wk {
			return fmt.Errorf("serverpool: self-check: leaf %d kind %v != %v", i, gk, wk)
		}
		var same bool
		switch wk {
		case wire.Int:
			same = got.LeafInt(i) == want.LeafInt(i)
		case wire.Double:
			g, w := got.LeafDouble(i), want.LeafDouble(i)
			same = g == w || math.IsNaN(g) && math.IsNaN(w)
		case wire.String:
			same = got.LeafString(i) == want.LeafString(i)
		case wire.Bool:
			same = got.LeafBool(i) == want.LeafBool(i)
		}
		if !same {
			return fmt.Errorf("serverpool: self-check: leaf %d (%s) value mismatch", i, want.LeafTag(i))
		}
	}
	return nil
}
