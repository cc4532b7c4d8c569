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
)

// counter indexes Metrics.c and clientRows. The order is the Prometheus
// page's: WritePrometheus writes it as runs of rows between its explicit
// lines.
type counter int

const (
	cCalls counter = iota
	// Failed calls by what stopped them (classifyErr): connection never
	// established, socket deadline, retry budget, or a plain send error.
	cErrDial
	cErrDeadline
	cErrBudget
	cErrSend
	// cMatchFirstTime+k counts successful calls of core.MatchKind k.
	cMatchFirstTime
	cMatchContent
	cMatchStructural
	cMatchPartial
	cMatchFull
	cBytesWire
	cBytesRepresented
	cBytesSerialized
	cDeltaSends
	cDeltaResyncs
	cValuesRewritten
	cTagShifts
	cShifts
	cSteals
	cCheckouts
	cCheckoutWaits
	cDials
	cRedials
	cDialFailures
	cRetries
	cTemplateRebinds
	cEvictions
	cBudgetEvictions
	cRetryBudgetExhausted
	cDegradedFTS
	cAsyncCalls
	cPipelineStalls
	cPipelineDepth
	cResolved // futures_pending is cAsyncCalls less it
	numCounters
)

// clientRows declares every counter once: its family, label, help text
// and the Stats field it fills. Snapshot and WritePrometheus walk it.
var clientRows = [numCounters]promtext.Row[Stats]{
	cCalls:                {Family: "bsoap_client_calls_total", Help: "Calls issued through the pool.", Field: func(s *Stats) *int64 { return &s.Calls }},
	cErrDial:              {Family: "bsoap_client_call_errors_total", Key: "kind", Label: "dial", Help: "Failed calls by what stopped them.", Field: func(s *Stats) *int64 { return &s.ErrorsByKind.Dial }},
	cErrDeadline:          {Family: "bsoap_client_call_errors_total", Label: "deadline", Field: func(s *Stats) *int64 { return &s.ErrorsByKind.Deadline }},
	cErrBudget:            {Family: "bsoap_client_call_errors_total", Label: "budget_exhausted", Field: func(s *Stats) *int64 { return &s.ErrorsByKind.BudgetExhausted }},
	cErrSend:              {Family: "bsoap_client_call_errors_total", Label: "send", Field: func(s *Stats) *int64 { return &s.ErrorsByKind.Send }},
	cMatchFirstTime:       {Family: "bsoap_client_matches_total", Key: "kind", Label: "first_time", Help: "Successful calls by differential match class.", Field: func(s *Stats) *int64 { return &s.FirstTimeSends }},
	cMatchContent:         {Family: "bsoap_client_matches_total", Label: "content", Field: func(s *Stats) *int64 { return &s.ContentMatches }},
	cMatchStructural:      {Family: "bsoap_client_matches_total", Label: "structural", Field: func(s *Stats) *int64 { return &s.StructuralMatches }},
	cMatchPartial:         {Family: "bsoap_client_matches_total", Label: "partial", Field: func(s *Stats) *int64 { return &s.PartialMatches }},
	cMatchFull:            {Family: "bsoap_client_matches_total", Label: "full", Field: func(s *Stats) *int64 { return &s.FullSerializations }},
	cBytesWire:            {Family: "bsoap_client_wire_bytes_total", Help: "Bytes that crossed the wire (patch frames count their framed size).", Field: func(s *Stats) *int64 { return &s.BytesOnWire }},
	cBytesRepresented:     {Family: "bsoap_client_represented_bytes_total", Help: "Full-body bytes the sends stand for after reconstruction.", Field: func(s *Stats) *int64 { return &s.BytesRepresented }},
	cBytesSerialized:      {Family: "bsoap_client_serialized_bytes_total", Help: "Bytes actually converted from in-memory values.", Field: func(s *Stats) *int64 { return &s.BytesSerialized }},
	cDeltaSends:           {Family: "bsoap_client_delta_sends_total", Help: "Calls sent as compact patch frames (differential transmission).", Field: func(s *Stats) *int64 { return &s.DeltaSends }},
	cDeltaResyncs:         {Family: "bsoap_client_delta_resyncs_total", Help: "Patch sends rejected 409/resync and retried in full.", Field: func(s *Stats) *int64 { return &s.DeltaResyncs }},
	cValuesRewritten:      {Family: "bsoap_client_values_rewritten_total", Help: "Dirty leaves re-serialized into templates.", Field: func(s *Stats) *int64 { return &s.ValuesRewritten }},
	cTagShifts:            {Family: "bsoap_client_tag_shifts_total", Help: "Closing-tag shifts within a field.", Field: func(s *Stats) *int64 { return &s.TagShifts }},
	cShifts:               {Family: "bsoap_client_shifts_total", Help: "Field expansions served by shifting.", Field: func(s *Stats) *int64 { return &s.Shifts }},
	cSteals:               {Family: "bsoap_client_steals_total", Help: "Field expansions served by padding steals.", Field: func(s *Stats) *int64 { return &s.Steals }},
	cCheckouts:            {Family: "bsoap_client_pool_checkouts_total", Help: "Connection checkouts.", Field: func(s *Stats) *int64 { return &s.Checkouts }},
	cCheckoutWaits:        {Family: "bsoap_client_pool_checkout_waits_total", Help: "Checkouts that blocked on a free slot.", Field: func(s *Stats) *int64 { return &s.CheckoutWaits }},
	cDials:                {Family: "bsoap_client_pool_dials_total", Help: "Fresh connections dialed.", Field: func(s *Stats) *int64 { return &s.Dials }},
	cRedials:              {Family: "bsoap_client_pool_redials_total", Help: "Broken connections repaired in place.", Field: func(s *Stats) *int64 { return &s.Redials }},
	cDialFailures:         {Family: "bsoap_client_pool_dial_failures_total", Help: "Dial and redial attempts that failed.", Field: func(s *Stats) *int64 { return &s.DialFailures }},
	cRetries:              {Family: "bsoap_client_pool_send_retries_total", Help: "Calls retried after connection repair.", Field: func(s *Stats) *int64 { return &s.Retries }},
	cTemplateRebinds:      {Family: "bsoap_client_template_rebinds_total", Help: "Template rebinds to a different message object.", Field: func(s *Stats) *int64 { return &s.TemplateRebinds }},
	cEvictions:            {Field: func(s *Stats) *int64 { return &s.TemplateEvictions }},
	cBudgetEvictions:      {Field: func(s *Stats) *int64 { return &s.TemplateBudgetEvictions }},
	cRetryBudgetExhausted: {Family: "bsoap_client_retry_budget_exhausted_total", Help: "Calls that ran out of retry budget.", Field: func(s *Stats) *int64 { return &s.RetryBudgetExhausted }},
	cDegradedFTS:          {Family: "bsoap_client_degraded_fts_total", Help: "Degraded first-time sends after a poisoned template.", Field: func(s *Stats) *int64 { return &s.DegradedFTS }},
	cAsyncCalls:           {Family: "bsoap_client_async_calls_total", Help: "Requests written through a connection's pipeline (every pooled request).", Field: func(s *Stats) *int64 { return &s.AsyncCalls }},
	cPipelineStalls:       {Family: "bsoap_client_pipeline_stalls_total", Help: "Async submits that blocked at full pipeline depth.", Field: func(s *Stats) *int64 { return &s.PipelineStalls }},
	cPipelineDepth:        {Family: "bsoap_client_pipeline_depth", Help: "Per-connection in-flight bound: the effective pipeline depth.", Gauge: true, Field: func(s *Stats) *int64 { return &s.PipelineDepth }},
}

// Metrics is the pool's registry: lock-free atomic counters covering the
// differential-serialization outcome of every call (per-match-kind
// counts, bytes on the wire vs. bytes actually serialized), the repair
// work done (tag shifts, shifts, steals), the connection pool's health
// (checkouts, waits, dials, redials) and a call-latency histogram.
// All methods are safe for concurrent use.
type Metrics struct {
	// c holds every counter, indexed by counter and declared in
	// clientRows. The pool's calls add to cAsyncCalls as a write starts
	// (and take it back if it fails), and the slots' senders add to
	// cResolved when its response is in or the connection failed;
	// cPipelineDepth is set once at pool construction.
	c [numCounters]atomic.Int64

	// templateSource, when set, snapshots the replica registry's byte
	// accounting (resident bytes, high water, refusals) so the
	// template-memory gauges come straight from the budget enforcer.
	templateSource atomic.Pointer[func() replica.Counters]

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
	m.c[cCalls].Add(1)
	m.c[cBytesWire].Add(int64(ci.WireBytes))
	m.c[cBytesRepresented].Add(int64(ci.Bytes))
	m.c[cBytesSerialized].Add(int64(ci.BytesSerialized))
	if ci.DeltaSent {
		m.c[cDeltaSends].Add(1)
	}
	if ci.DeltaResync {
		m.c[cDeltaResyncs].Add(1)
	}
	m.c[cValuesRewritten].Add(int64(ci.ValuesRewritten))
	m.c[cTagShifts].Add(int64(ci.TagShifts))
	m.c[cShifts].Add(int64(ci.Shifts))
	m.c[cSteals].Add(int64(ci.Steals))
	if err != nil {
		m.c[classifyErr(err)].Add(1)
		return
	}
	if k := cMatchFirstTime + counter(ci.Match); k >= cMatchFirstTime && k <= cMatchFull {
		m.c[k].Add(1)
	}
	m.lat.Observe(int64(d))
	if ci.Degraded && ci.Match == core.FirstTime {
		m.c[cDegradedFTS].Add(1)
	}
}

// classifyErr maps a failed call's error to its error counter. Budget
// exhaustion wins over the dial/deadline cause that consumed the budget;
// a dial sentinel beats the generic timeout check because dial errors
// can themselves be timeouts.
func classifyErr(err error) counter {
	switch {
	case errors.Is(err, errRetryBudgetExhausted):
		return cErrBudget
	case errors.Is(err, errDialFailed):
		return cErrDial
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return cErrDeadline
	}
	return cErrSend
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
	// the retry budget (10 s a call).
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
	// out. The field stays for its reader, the benchmark; it has no
	// Prometheus family.
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
	// retry work exceeded the retry budget (10 s a call).
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	// DegradedFTS counts successful calls served as a degraded
	// first-time send because a prior failure poisoned the template.
	DegradedFTS int64 `json:"degraded_fts"`

	// AsyncCalls counts requests written through a slot's sender —
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
// except first-time and from-scratch sends).
func (s Stats) WarmCalls() int64 {
	return s.ContentMatches + s.StructuralMatches + s.PartialMatches
}

// Snapshot reads every counter. Counters are read individually (not as
// one atomic unit), so totals can be transiently off by in-flight calls;
// after quiescence they are exact.
func (m *Metrics) Snapshot() Stats {
	// resolved first: every request it counts was written before, so the
	// pending gauge never reads below zero.
	resolved := m.c[cResolved].Load()
	var s Stats
	for i, r := range clientRows {
		if r.Field != nil {
			*r.Field(&s) = m.c[i].Load()
		}
	}
	e := s.ErrorsByKind
	s.Errors = e.Dial + e.Deadline + e.BudgetExhausted + e.Send
	s.FuturesPending = s.AsyncCalls - resolved
	s.BytesSaved = s.BytesRepresented - s.BytesSerialized
	s.DeltaBytesSaved = s.BytesRepresented - s.BytesOnWire

	s.LatencyP50 = time.Duration(m.lat.Quantile(0.50))
	s.LatencyP90 = time.Duration(m.lat.Quantile(0.90))
	s.LatencyP99 = time.Duration(m.lat.Quantile(0.99))
	s.LatencyMax = time.Duration(m.lat.MaxNs())
	s.LatencyBuckets = make([]int64, trace.StageBucketCount)
	s.LatencySumNs = m.lat.SumNs()
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
// format (version 0.0.4): the table's rows, the derived and sourced
// values between them, and the latency histogram as a native
// _bucket/_sum/_count series in seconds.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	p := promtext.New(w)
	rows := func(from, to counter) { promtext.Rows(p, clientRows[from:to], &s) }

	rows(0, cDeltaSends)
	p.Counter("bsoap_client_saved_bytes_total", "Serialization bytes avoided by diffing.", s.BytesSaved)
	rows(cDeltaSends, cValuesRewritten)
	p.Counter("bsoap_client_delta_bytes_saved_total", "Wire bytes avoided by differential transmission.", s.DeltaBytesSaved)
	rows(cValuesRewritten, cEvictions)
	p.CounterWithLabel("bsoap_client_template_evictions_total", "Replica sets evicted, by driver.",
		"reason", []promtext.LabeledValue{
			{Label: "lru", Value: s.TemplateEvictions - s.TemplateBudgetEvictions},
			{Label: "budget", Value: s.TemplateBudgetEvictions},
		})
	p.Counter("bsoap_client_template_refused_total", "Calls served from scratch because their operation's templates were full and in use.", s.TemplateRefusals)
	p.Gauge("bsoap_client_template_bytes", "Accounted template memory resident in the replica registry.", s.TemplateBytes)
	p.Gauge("bsoap_client_template_bytes_high_water", "Lifetime maximum of bsoap_client_template_bytes.", s.TemplateBytesHighWater)
	p.Counter("bsoap_client_faults_injected_total", "Faults the external injector put on the wire.", s.FaultsInjected)
	rows(cRetryBudgetExhausted, numCounters)
	p.Gauge("bsoap_client_futures_pending", "Requests submitted but not yet resolved.", s.FuturesPending)

	p.Histogram("bsoap_client_call_latency_seconds", "Successful call latency (power-of-two buckets).",
		trace.StageBucketUppers(), s.LatencyBuckets, float64(s.LatencySumNs)/1e9, s.LatencyCount)

	p.HistogramWithLabel("bsoap_client_stage_seconds",
		"Client-side per-call latency attribution by pipeline stage.", "stage",
		promtext.StageSeconds(&m.Stages, clientStages))

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
