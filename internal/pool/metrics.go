package pool

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/promtext"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
	"bsoap/internal/transport"
)

// errKind indexes the per-kind error counters: what stopped a failed
// call (connection never established, socket deadline, retry budget, or
// a plain send error).
const (
	errKindDial = iota
	errKindDeadline
	errKindBudget
	errKindSend
	errKindCount
)

// errKindNames are the stable label values the JSON and Prometheus
// endpoints use.
var errKindNames = [errKindCount]string{"dial", "deadline", "budget_exhausted", "send"}

// Metrics is the pool's registry: lock-free atomic counters covering the
// differential-serialization outcome of every call (per-match-kind
// counts, bytes on the wire vs. bytes actually serialized), the repair
// work done (tag shifts, shifts, steals), the connection pool's health
// (checkouts, waits, dials, redials) and a call-latency histogram.
// All methods are safe for concurrent use.
type Metrics struct {
	calls  atomic.Int64
	errors atomic.Int64

	// errorsByKind breaks failed calls down by what stopped them.
	errorsByKind [errKindCount]atomic.Int64

	// matches indexes per-kind call counts by core.MatchKind.
	matches [5]atomic.Int64

	bytesWire        atomic.Int64
	bytesRepresented atomic.Int64
	bytesSerialized  atomic.Int64

	// Differential transmission: patch frames sent instead of full
	// bodies, and server-demanded resynchronizations.
	deltaSends   atomic.Int64
	deltaResyncs atomic.Int64

	valuesRewritten atomic.Int64
	tagShifts       atomic.Int64
	shifts          atomic.Int64
	steals          atomic.Int64

	checkouts     atomic.Int64
	checkoutWaits atomic.Int64
	dials         atomic.Int64
	redials       atomic.Int64
	dialFailures  atomic.Int64
	retries       atomic.Int64

	templateRebinds atomic.Int64
	evictions       atomic.Int64
	budgetEvictions atomic.Int64

	// templateSource, when set, snapshots the replica registry's byte
	// accounting (resident bytes, high water, eviction splits) so the
	// template-memory gauges come straight from the budget enforcer.
	templateSource atomic.Pointer[func() replica.Counters]

	degradedFTS          atomic.Int64
	retryBudgetExhausted atomic.Int64

	// The pipelines under the pool's slots. asyncCalls counts requests
	// written (+1 as a write starts, -1 if it fails) and resolved the
	// written requests whose response is in or whose pipeline failed:
	// their difference is the futures_pending gauge. pipelineDepth is a
	// config gauge set once at pool construction (the effective depth, at
	// least 1); pipelineStalls counts submits that blocked because the
	// pipeline was already at depth.
	asyncCalls     atomic.Int64
	resolved       atomic.Int64
	pipelineDepth  atomic.Int64
	pipelineStalls atomic.Int64

	// faultSource, when set, reports how many faults an external
	// injector (faultwire) has put on this pool's wire; snapshots read
	// it so chaos runs can watch fault counts on the live endpoint.
	faultSource atomic.Pointer[func() int64]

	// Stages is the always-on per-stage latency attribution histogram
	// (client stages: checkout, serialize, pipeline_queue, wire),
	// exposed as bsoap_client_stage_seconds.
	Stages trace.StageHist

	lat trace.Hist
}

// newMetrics returns an empty registry.
func newMetrics() *Metrics { return &Metrics{} }

// RecordCall folds one call's outcome into the registry. Byte and
// repair counters are recorded whether or not the call succeeded: a
// failed send may still have pushed most of the template onto the wire
// and done all its rewrite work, and dashboards under-report wire
// traffic in chaos runs if those bytes vanish. Match-kind counts and the
// latency histogram remain success-only (a failed call has no completed
// classification or meaningful service time).
func (m *Metrics) RecordCall(ci core.CallInfo, err error, d time.Duration) {
	m.calls.Add(1)
	m.bytesWire.Add(int64(ci.WireBytes))
	m.bytesRepresented.Add(int64(ci.Bytes))
	m.bytesSerialized.Add(int64(ci.BytesSerialized))
	if ci.DeltaSent {
		m.deltaSends.Add(1)
	}
	if ci.DeltaResync {
		m.deltaResyncs.Add(1)
	}
	m.valuesRewritten.Add(int64(ci.ValuesRewritten))
	m.tagShifts.Add(int64(ci.TagShifts))
	m.shifts.Add(int64(ci.Shifts))
	m.steals.Add(int64(ci.Steals))
	if err != nil {
		m.errors.Add(1)
		m.errorsByKind[classifyErr(err)].Add(1)
		return
	}
	if k := int(ci.Match); k >= 0 && k < len(m.matches) {
		m.matches[k].Add(1)
	}
	m.lat.Observe(int64(d))
	if ci.Degraded && ci.Match == core.FirstTime {
		m.degradedFTS.Add(1)
	}
}

// classifyErr maps a failed call's error to its errKind bucket. Budget
// exhaustion wins over the dial/deadline cause that consumed the budget;
// a dial sentinel beats the generic timeout check because dial errors
// can themselves be timeouts.
func classifyErr(err error) int {
	switch {
	case errors.Is(err, errRetryBudgetExhausted):
		return errKindBudget
	case errors.Is(err, errDialFailed):
		return errKindDial
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return errKindDeadline
	}
	return errKindSend
}

// SetFaultSource registers a callback reporting the running fault count
// of an external injector (e.g. faultwire.Injector.Faults). Snapshots
// include its value as faults_injected. Safe for concurrent use; pass
// nil to detach.
func (m *Metrics) SetFaultSource(f func() int64) {
	if f == nil {
		m.faultSource.Store(nil)
		return
	}
	m.faultSource.Store(&f)
}

// ErrorsByKind breaks the error count down by what stopped each failed
// call.
type ErrorsByKind struct {
	// Dial counts calls that never got a healthy connection.
	Dial int64 `json:"dial"`
	// Deadline counts calls stopped by a socket read/write deadline.
	Deadline int64 `json:"deadline"`
	// BudgetExhausted counts calls whose repair/retry work exceeded
	// Options.RetryBudget.
	BudgetExhausted int64 `json:"budget_exhausted"`
	// Send counts every other send failure (resets, broken pipes, …).
	Send int64 `json:"send"`
}

// Stats is a point-in-time snapshot of the registry, JSON-marshalable in
// the expvar style (the loadgen's -metrics endpoint serves exactly this
// object).
type Stats struct {
	Calls  int64 `json:"calls"`
	Errors int64 `json:"errors"`

	// ErrorsByKind partitions Errors by failure cause.
	ErrorsByKind ErrorsByKind `json:"errors_by_kind"`

	FirstTimeSends     int64 `json:"first_time_sends"`
	ContentMatches     int64 `json:"content_matches"`
	StructuralMatches  int64 `json:"structural_matches"`
	PartialMatches     int64 `json:"partial_matches"`
	FullSerializations int64 `json:"full_serializations"`

	// BytesOnWire is what actually crossed the wire (a patch frame counts
	// its framed size); BytesRepresented is the message bytes those sends
	// stand for (always the full body); BytesSerialized is the portion
	// the engine actually converted from memory. BytesSaved =
	// BytesRepresented − BytesSerialized is the serialization work
	// differential serialization avoided; DeltaBytesSaved =
	// BytesRepresented − BytesOnWire is the wire traffic differential
	// transmission avoided (zero with delta off, where every send's wire
	// size equals its represented size).
	BytesOnWire      int64 `json:"bytes_on_wire"`
	BytesRepresented int64 `json:"bytes_represented"`
	BytesSerialized  int64 `json:"bytes_serialized"`
	BytesSaved       int64 `json:"bytes_saved"`
	DeltaBytesSaved  int64 `json:"delta_bytes_saved"`

	// DeltaSends counts calls that went out as compact patch frames;
	// DeltaResyncs counts patch sends the server rejected with a 409
	// resync demand (each one was losslessly retried as a full body).
	DeltaSends   int64 `json:"delta_sends"`
	DeltaResyncs int64 `json:"delta_resyncs"`

	ValuesRewritten int64 `json:"values_rewritten"`
	TagShifts       int64 `json:"tag_shifts"`
	Shifts          int64 `json:"shifts"`
	Steals          int64 `json:"steals"`

	Checkouts       int64 `json:"pool_checkouts"`
	CheckoutWaits   int64 `json:"pool_checkout_waits"`
	Dials           int64 `json:"pool_dials"`
	Redials         int64 `json:"pool_redials"`
	DialFailures    int64 `json:"pool_dial_failures"`
	Retries         int64 `json:"pool_send_retries"`
	TemplateRebinds int64 `json:"template_rebinds"`

	// TemplateStaleRebinds is always zero: it counted messages returning
	// to a replica they had bounced away from, which exact binding rules
	// out. The field and its Prometheus family stay for their readers.
	TemplateStaleRebinds int64 `json:"template_stale_rebinds"`
	// TemplateEvictions counts (operation, signature) replica sets
	// dropped for any reason; TemplateBudgetEvictions is the subset
	// driven by the MaxTemplateBytes budget (the rest is the
	// per-operation LRU cap).
	TemplateEvictions       int64 `json:"template_evictions"`
	TemplateBudgetEvictions int64 `json:"template_budget_evictions"`
	// TemplateRefusals counts calls served from scratch, as full
	// serializations, because their operation's templates were full and
	// the doorkeeper had not seen their signature refused recently: a
	// template refused, not built and evicted.
	TemplateRefusals int64 `json:"template_refusals"`

	// TemplateBytes gauges the registry's accounted template memory;
	// TemplateBytesHighWater is its lifetime maximum. Zero when the pool
	// has no template source registered (bare Metrics in tests).
	TemplateBytes          int64 `json:"template_bytes"`
	TemplateBytesHighWater int64 `json:"template_bytes_high_water"`

	// FaultsInjected is the external fault injector's running count
	// (zero unless a fault source is registered; see SetFaultSource).
	FaultsInjected int64 `json:"faults_injected"`
	// RetryBudgetExhausted counts calls that failed because repair and
	// retry work exceeded Options.RetryBudget.
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	// DegradedFTS counts successful calls served as a degraded
	// first-time send because a prior failure poisoned the template.
	DegradedFTS int64 `json:"degraded_fts"`

	// AsyncCalls counts requests written through a slot's pipeline —
	// every request, Call's and CallAsync's, resubmissions included.
	// PipelineDepth is the effective per-connection in-flight bound (at
	// least 1). FuturesPending gauges requests submitted but not yet
	// resolved; PipelineStalls counts submits that blocked at full depth.
	AsyncCalls     int64 `json:"async_calls"`
	PipelineDepth  int64 `json:"pipeline_depth"`
	FuturesPending int64 `json:"futures_pending"`
	PipelineStalls int64 `json:"pipeline_stalls"`

	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP90 time.Duration `json:"latency_p90_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`

	// LatencyBuckets are the histogram's raw power-of-two buckets:
	// bucket i counts observations whose latency in nanoseconds lies in
	// [2^(i-1), 2^i). Both the Prometheus exposition and offline
	// analysis derive their views from these; the quantile fields above
	// are convenience summaries.
	LatencyBuckets []int64 `json:"latency_buckets"`
	// LatencyCount and LatencySumNs are the histogram's total
	// observation count and nanosecond sum (mean = sum/count).
	LatencyCount int64 `json:"latency_count"`
	LatencySumNs int64 `json:"latency_sum_ns"`
}

// WarmCalls counts calls served from an existing template (everything
// except first-time and diff-disabled sends).
func (s Stats) WarmCalls() int64 {
	return s.ContentMatches + s.StructuralMatches + s.PartialMatches
}

// Snapshot reads every counter. Counters are read individually (not as
// one atomic unit), so totals can be transiently off by in-flight calls;
// after quiescence they are exact.
func (m *Metrics) Snapshot() Stats {
	// resolved first: every request it counts was written before, so the
	// pending gauge never reads below zero.
	resolved := m.resolved.Load()
	written := m.asyncCalls.Load()
	s := Stats{
		Calls:  m.calls.Load(),
		Errors: m.errors.Load(),

		ErrorsByKind: ErrorsByKind{
			Dial:            m.errorsByKind[errKindDial].Load(),
			Deadline:        m.errorsByKind[errKindDeadline].Load(),
			BudgetExhausted: m.errorsByKind[errKindBudget].Load(),
			Send:            m.errorsByKind[errKindSend].Load(),
		},

		FirstTimeSends:     m.matches[core.FirstTime].Load(),
		ContentMatches:     m.matches[core.ContentMatch].Load(),
		StructuralMatches:  m.matches[core.StructuralMatch].Load(),
		PartialMatches:     m.matches[core.PartialMatch].Load(),
		FullSerializations: m.matches[core.FullSerialization].Load(),

		BytesOnWire:      m.bytesWire.Load(),
		BytesRepresented: m.bytesRepresented.Load(),
		BytesSerialized:  m.bytesSerialized.Load(),
		DeltaSends:       m.deltaSends.Load(),
		DeltaResyncs:     m.deltaResyncs.Load(),

		ValuesRewritten: m.valuesRewritten.Load(),
		TagShifts:       m.tagShifts.Load(),
		Shifts:          m.shifts.Load(),
		Steals:          m.steals.Load(),

		Checkouts:       m.checkouts.Load(),
		CheckoutWaits:   m.checkoutWaits.Load(),
		Dials:           m.dials.Load(),
		Redials:         m.redials.Load(),
		DialFailures:    m.dialFailures.Load(),
		Retries:         m.retries.Load(),
		TemplateRebinds: m.templateRebinds.Load(),

		TemplateEvictions:       m.evictions.Load(),
		TemplateBudgetEvictions: m.budgetEvictions.Load(),

		RetryBudgetExhausted: m.retryBudgetExhausted.Load(),
		DegradedFTS:          m.degradedFTS.Load(),

		AsyncCalls:     written,
		PipelineDepth:  m.pipelineDepth.Load(),
		FuturesPending: written - resolved,
		PipelineStalls: m.pipelineStalls.Load(),

		LatencyP50: time.Duration(m.lat.Quantile(0.50)),
		LatencyP90: time.Duration(m.lat.Quantile(0.90)),
		LatencyP99: time.Duration(m.lat.Quantile(0.99)),
		LatencyMax: time.Duration(m.lat.MaxNs()),

		LatencyBuckets: make([]int64, trace.StageBucketCount),
		LatencySumNs:   m.lat.SumNs(),
	}
	s.LatencyCount = m.lat.Buckets(s.LatencyBuckets)
	if f := m.faultSource.Load(); f != nil {
		s.FaultsInjected = (*f)()
	}
	if f := m.templateSource.Load(); f != nil {
		c := (*f)()
		s.TemplateBytes = c.Bytes
		s.TemplateBytesHighWater = c.HighWater
		s.TemplateRefusals = c.Refused
	}
	s.BytesSaved = s.BytesRepresented - s.BytesSerialized
	s.DeltaBytesSaved = s.BytesRepresented - s.BytesOnWire
	return s
}

// WriteJSON writes the snapshot as indented JSON — the expvar-style
// payload the metrics endpoint serves.
func (m *Metrics) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (version 0.0.4): every counter plus the latency histogram as a
// native _bucket/_sum/_count series in seconds.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	p := promtext.New(w)

	p.Counter("bsoap_client_calls_total", "Calls issued through the pool.", s.Calls)
	p.CounterWithLabel("bsoap_client_call_errors_total", "Failed calls by what stopped them.",
		"kind", []promtext.LabeledValue{
			{Label: errKindNames[errKindDial], Value: s.ErrorsByKind.Dial},
			{Label: errKindNames[errKindDeadline], Value: s.ErrorsByKind.Deadline},
			{Label: errKindNames[errKindBudget], Value: s.ErrorsByKind.BudgetExhausted},
			{Label: errKindNames[errKindSend], Value: s.ErrorsByKind.Send},
		})
	p.CounterWithLabel("bsoap_client_matches_total", "Successful calls by differential match class.",
		"kind", []promtext.LabeledValue{
			{Label: "first_time", Value: s.FirstTimeSends},
			{Label: "content", Value: s.ContentMatches},
			{Label: "structural", Value: s.StructuralMatches},
			{Label: "partial", Value: s.PartialMatches},
			{Label: "full", Value: s.FullSerializations},
		})

	p.Counter("bsoap_client_wire_bytes_total", "Bytes that crossed the wire (patch frames count their framed size).", s.BytesOnWire)
	p.Counter("bsoap_client_represented_bytes_total", "Full-body bytes the sends stand for after reconstruction.", s.BytesRepresented)
	p.Counter("bsoap_client_serialized_bytes_total", "Bytes actually converted from in-memory values.", s.BytesSerialized)
	p.Counter("bsoap_client_saved_bytes_total", "Serialization bytes avoided by diffing.", s.BytesSaved)

	p.Counter("bsoap_client_delta_sends_total", "Calls sent as compact patch frames (differential transmission).", s.DeltaSends)
	p.Counter("bsoap_client_delta_resyncs_total", "Patch sends rejected 409/resync and retried in full.", s.DeltaResyncs)
	p.Counter("bsoap_client_delta_bytes_saved_total", "Wire bytes avoided by differential transmission.", s.DeltaBytesSaved)

	p.Counter("bsoap_client_values_rewritten_total", "Dirty leaves re-serialized into templates.", s.ValuesRewritten)
	p.Counter("bsoap_client_tag_shifts_total", "Closing-tag shifts within a field.", s.TagShifts)
	p.Counter("bsoap_client_shifts_total", "Field expansions served by shifting.", s.Shifts)
	p.Counter("bsoap_client_steals_total", "Field expansions served by padding steals.", s.Steals)

	p.Counter("bsoap_client_pool_checkouts_total", "Connection checkouts.", s.Checkouts)
	p.Counter("bsoap_client_pool_checkout_waits_total", "Checkouts that blocked on a free slot.", s.CheckoutWaits)
	p.Counter("bsoap_client_pool_dials_total", "Fresh connections dialed.", s.Dials)
	p.Counter("bsoap_client_pool_redials_total", "Broken connections repaired in place.", s.Redials)
	p.Counter("bsoap_client_pool_dial_failures_total", "Dial and redial attempts that failed.", s.DialFailures)
	p.Counter("bsoap_client_pool_send_retries_total", "Calls retried after connection repair.", s.Retries)

	p.Counter("bsoap_client_template_rebinds_total", "Template rebinds to a different message object.", s.TemplateRebinds)
	p.Counter("bsoap_client_template_stale_rebinds_total", "Always 0: a message no longer bounces between replicas.", s.TemplateStaleRebinds)
	p.CounterWithLabel("bsoap_client_template_evictions_total", "Replica sets evicted, by driver.",
		"reason", []promtext.LabeledValue{
			{Label: "lru", Value: s.TemplateEvictions - s.TemplateBudgetEvictions},
			{Label: "budget", Value: s.TemplateBudgetEvictions},
		})
	p.Counter("bsoap_client_template_refused_total", "Calls served from scratch because their operation's templates were full and in use.", s.TemplateRefusals)
	p.Gauge("bsoap_client_template_bytes", "Accounted template memory resident in the replica registry.", s.TemplateBytes)
	p.Gauge("bsoap_client_template_bytes_high_water", "Lifetime maximum of bsoap_client_template_bytes.", s.TemplateBytesHighWater)

	p.Counter("bsoap_client_faults_injected_total", "Faults the external injector put on the wire.", s.FaultsInjected)
	p.Counter("bsoap_client_retry_budget_exhausted_total", "Calls that ran out of retry budget.", s.RetryBudgetExhausted)
	p.Counter("bsoap_client_degraded_fts_total", "Degraded first-time sends after a poisoned template.", s.DegradedFTS)

	p.Counter("bsoap_client_async_calls_total", "Requests written through a connection's pipeline (every pooled request).", s.AsyncCalls)
	p.Counter("bsoap_client_pipeline_stalls_total", "Async submits that blocked at full pipeline depth.", s.PipelineStalls)
	p.Gauge("bsoap_client_pipeline_depth", "Per-connection in-flight bound: the effective pipeline depth.", s.PipelineDepth)
	p.Gauge("bsoap_client_futures_pending", "Requests submitted but not yet resolved.", s.FuturesPending)

	p.Histogram("bsoap_client_call_latency_seconds", "Successful call latency (power-of-two buckets).",
		trace.StageBucketUppers(), s.LatencyBuckets, float64(s.LatencySumNs)/1e9, s.LatencyCount)

	p.HistogramWithLabel("bsoap_client_stage_seconds",
		"Client-side per-call latency attribution by pipeline stage.", "stage",
		transport.StageSeconds(&m.Stages, clientStages))

	return p.Err()
}

// clientStages are the stages the client side attributes latency to.
var clientStages = []trace.Stage{
	trace.StageCheckout, trace.StageSerialize, trace.StageDeltaEncode,
	trace.StagePipelineQueue, trace.StageWire,
}

// ServeHTTP makes the registry an http.Handler so a live system can
// expose match-class rates on a debug port (net/http is used only here;
// the data path stays on the hand-rolled transport).
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := m.WriteJSON(w); err != nil {
		http.Error(w, fmt.Sprintf("metrics: %v", err), http.StatusInternalServerError)
	}
}
