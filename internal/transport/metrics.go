package transport

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"

	"bsoap/internal/diffdeser"
	"bsoap/internal/promtext"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
)

// ServerMetrics is the server-side counterpart of pool.Metrics: a
// registry of counters a receiving endpoint cares about. One instance
// can back several Servers (e.g. a plain and a TLS listener) since every
// field is an independent atomic.
type ServerMetrics struct {
	requests     atomic.Int64
	bytesIn      atomic.Int64
	parseErrors  atomic.Int64
	deadlineHits atomic.Int64
	activeConns  atomic.Int64
	connsTotal   atomic.Int64

	// Admission control and drain (the concurrent server runtime).
	inFlight         atomic.Int64
	rejectedConns    atomic.Int64
	rejectedRequests atomic.Int64
	drainAborted     atomic.Int64

	// Differential-deserialization outcomes, recorded by the serverpool
	// runtime (the transport itself never parses SOAP).
	ddsFastPath            atomic.Int64
	ddsFullParses          [diffdeser.NumReasons]atomic.Int64 // by why the request went cold
	ddsValuesReparsed      atomic.Int64
	ddsKeyEvictions        atomic.Int64
	replicaEvictions       atomic.Int64
	replicaBudgetEvictions atomic.Int64

	// Differential transmission (the delta-wire protocol): patch frames
	// applied, bases stored from sync-annotated full sends, resync
	// rejections, bases evicted, and the wire-vs-represented byte split
	// for delta-negotiated requests.
	deltaApplied       atomic.Int64
	deltaSyncs         atomic.Int64
	deltaResyncs       atomic.Int64
	deltaBaseEvictions atomic.Int64
	deltaWireBytes     atomic.Int64
	deltaRepresented   atomic.Int64

	// templateSource, when set, snapshots the serverpool replica
	// registry's byte accounting so the template-memory gauges come
	// straight from the budget enforcer.
	templateSource atomic.Pointer[func() replica.Counters]

	// Stages is the always-on per-stage latency attribution histogram
	// (server stages: server_queue, decode, handler, respond, write),
	// exposed as bsoap_server_stage_seconds. The transport records queue
	// and write; serverpool records decode, handler and respond.
	Stages trace.StageHist
}

// NewServerMetrics returns an empty registry.
func NewServerMetrics() *ServerMetrics { return &ServerMetrics{} }

// ServerStats is a point-in-time snapshot of ServerMetrics, shaped for
// JSON.
type ServerStats struct {
	Requests     int64 `json:"requests"`
	BytesIn      int64 `json:"bytes_in"`
	ParseErrors  int64 `json:"parse_errors"`
	DeadlineHits int64 `json:"deadline_hits"`
	ActiveConns  int64 `json:"active_conns"`
	ConnsTotal   int64 `json:"conns_total"`

	InFlight         int64 `json:"in_flight"`
	RejectedConns    int64 `json:"rejected_conns"`
	RejectedRequests int64 `json:"rejected_requests"`
	DrainAborted     int64 `json:"drain_aborted"`

	DDSFastPath   int64 `json:"dds_fast_path"`
	DDSFullParses int64 `json:"dds_full_parses"`
	// DDSFullParseReasons splits DDSFullParses by diffdeser.Reason (its
	// label as the key): the entries sum to it.
	DDSFullParseReasons map[string]int64 `json:"dds_full_parse_reasons"`
	DDSValuesReparsed   int64            `json:"dds_values_reparsed"`
	DDSKeyEvictions     int64            `json:"dds_key_evictions"`
	ReplicaEvictions    int64            `json:"replica_evictions"`

	// ReplicaBudgetEvictions is the subset of ReplicaEvictions driven by
	// the MaxTemplateBytes budget; the rest is the replica count cap.
	ReplicaBudgetEvictions int64 `json:"replica_budget_evictions"`

	// Differential transmission: DeltaApplied counts patch frames applied
	// to a held base; DeltaSyncs counts full bodies stored as bases;
	// DeltaResyncs counts 409 resync answers; DeltaBaseEvictions counts
	// bases dropped (cap, or a synced or patched body that did not decode).
	// DeltaWireBytes/DeltaRepresented split delta-negotiated request
	// traffic into bytes that crossed the wire versus body bytes they
	// represent after reconstruction.
	DeltaApplied       int64 `json:"delta_applied"`
	DeltaSyncs         int64 `json:"delta_syncs"`
	DeltaResyncs       int64 `json:"delta_resyncs"`
	DeltaBaseEvictions int64 `json:"delta_base_evictions"`
	DeltaWireBytes     int64 `json:"delta_wire_bytes"`
	DeltaRepresented   int64 `json:"delta_represented_bytes"`
	// TemplateBytes gauges the replica registry's accounted template
	// memory; TemplateBytesHighWater is its lifetime maximum.
	TemplateBytes          int64 `json:"template_bytes"`
	TemplateBytesHighWater int64 `json:"template_bytes_high_water"`
}

// Snapshot reads every counter. Counters are read independently, so a
// snapshot taken mid-request may be off by one between related fields.
func (m *ServerMetrics) Snapshot() ServerStats {
	st := ServerStats{
		Requests:     m.requests.Load(),
		BytesIn:      m.bytesIn.Load(),
		ParseErrors:  m.parseErrors.Load(),
		DeadlineHits: m.deadlineHits.Load(),
		ActiveConns:  m.activeConns.Load(),
		ConnsTotal:   m.connsTotal.Load(),

		InFlight:         m.inFlight.Load(),
		RejectedConns:    m.rejectedConns.Load(),
		RejectedRequests: m.rejectedRequests.Load(),
		DrainAborted:     m.drainAborted.Load(),

		DDSFastPath:       m.ddsFastPath.Load(),
		DDSValuesReparsed: m.ddsValuesReparsed.Load(),
		DDSKeyEvictions:   m.ddsKeyEvictions.Load(),
		ReplicaEvictions:  m.replicaEvictions.Load(),

		ReplicaBudgetEvictions: m.replicaBudgetEvictions.Load(),

		DeltaApplied:       m.deltaApplied.Load(),
		DeltaSyncs:         m.deltaSyncs.Load(),
		DeltaResyncs:       m.deltaResyncs.Load(),
		DeltaBaseEvictions: m.deltaBaseEvictions.Load(),
		DeltaWireBytes:     m.deltaWireBytes.Load(),
		DeltaRepresented:   m.deltaRepresented.Load(),
	}
	st.DDSFullParseReasons = make(map[string]int64, diffdeser.NumReasons-1)
	for r := diffdeser.ReasonNone + 1; r < diffdeser.NumReasons; r++ {
		n := m.ddsFullParses[r].Load()
		st.DDSFullParseReasons[r.String()] = n
		st.DDSFullParses += n
	}
	if f := m.templateSource.Load(); f != nil {
		c := (*f)()
		st.TemplateBytes = c.Bytes
		st.TemplateBytesHighWater = c.HighWater
	}
	return st
}

// RecordDDSDecode counts one decoded request: a fast differential decode
// (ReasonNone) and how many leaf value regions it re-lexed, or a full
// parse under the reason the fast path did not serve it. The serverpool
// runtime calls this per request.
func (m *ServerMetrics) RecordDDSDecode(why diffdeser.Reason, valuesReparsed int) {
	if why == diffdeser.ReasonNone {
		m.ddsFastPath.Add(1)
		m.ddsValuesReparsed.Add(int64(valuesReparsed))
	} else {
		m.ddsFullParses[why].Add(1)
	}
}

// AddDDSKeyEvictions accumulates operation-key evictions from a
// replica's bounded deserializer.
func (m *ServerMetrics) AddDDSKeyEvictions(n int64) {
	if n > 0 {
		m.ddsKeyEvictions.Add(n)
	}
}

// RecordReplicaEviction counts one replica evicted by the serverpool
// registry; budget marks evictions driven by the MaxTemplateBytes
// budget rather than the replica count cap.
func (m *ServerMetrics) RecordReplicaEviction(budget bool) {
	m.replicaEvictions.Add(1)
	if budget {
		m.replicaBudgetEvictions.Add(1)
	}
}

// RecordDeltaApply counts one patch frame successfully applied to a held
// base: wire is the frame's size on the wire, represented the size of
// the body it reconstructs. The serverpool runtime calls this per patch.
func (m *ServerMetrics) RecordDeltaApply(wire, represented int) {
	m.deltaApplied.Add(1)
	m.deltaWireBytes.Add(int64(wire))
	m.deltaRepresented.Add(int64(represented))
}

// RecordDeltaSync counts one full body stored as a patch base (both its
// wire and represented sizes are the body itself).
func (m *ServerMetrics) RecordDeltaSync(bodyLen int) {
	m.deltaSyncs.Add(1)
	m.deltaWireBytes.Add(int64(bodyLen))
	m.deltaRepresented.Add(int64(bodyLen))
}

// RecordDeltaBaseEviction counts one patch base dropped — LRU pressure,
// or a synced or patched body that would not decode (a frame that fails
// its checksum leaves the base as it was).
func (m *ServerMetrics) RecordDeltaBaseEviction() { m.deltaBaseEvictions.Add(1) }

// SetTemplateSource installs the function that snapshots the replica
// registry's byte accounting (serverpool wires this at startup).
func (m *ServerMetrics) SetTemplateSource(f func() replica.Counters) {
	m.templateSource.Store(&f)
}

// connOpened / connClosed maintain the active-connection gauge.
func (m *ServerMetrics) connOpened() {
	m.activeConns.Add(1)
	m.connsTotal.Add(1)
}

func (m *ServerMetrics) connClosed() { m.activeConns.Add(-1) }

// recordRequest counts one fully received request body.
func (m *ServerMetrics) recordRequest(bodyLen int) {
	m.requests.Add(1)
	m.bytesIn.Add(int64(bodyLen))
}

// recordReadError classifies a failed request read: a timeout (possibly
// wrapped) is a deadline hit, anything else that isn't a clean close is
// a parse (or framing) error.
func (m *ServerMetrics) recordReadError(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		m.deadlineHits.Add(1)
		return
	}
	m.parseErrors.Add(1)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (m *ServerMetrics) WritePrometheus(w io.Writer) error {
	st := m.Snapshot()
	p := promtext.New(w)
	p.Counter("bsoap_server_requests_total", "Requests fully received.", st.Requests)
	p.Counter("bsoap_server_received_bytes_total", "Request body bytes received.", st.BytesIn)
	p.Counter("bsoap_server_parse_errors_total", "Requests aborted by a framing or parse error.", st.ParseErrors)
	p.Counter("bsoap_server_deadline_hits_total", "Request reads aborted by an I/O deadline.", st.DeadlineHits)
	p.Counter("bsoap_server_conns_total", "Connections accepted.", st.ConnsTotal)
	p.Gauge("bsoap_server_active_conns", "Connections currently open.", st.ActiveConns)
	p.Gauge("bsoap_server_in_flight_requests", "Requests currently being handled.", st.InFlight)
	p.Counter("bsoap_server_rejected_conns_total", "Connections rejected 503 by the MaxConns admission cap.", st.RejectedConns)
	p.Counter("bsoap_server_rejected_requests_total", "Requests rejected 503 by the MaxInFlight admission cap.", st.RejectedRequests)
	p.Counter("bsoap_server_drain_aborted_total", "In-flight requests force-closed when a Shutdown deadline expired.", st.DrainAborted)
	p.Counter("bsoap_server_dds_fast_path_total", "Requests decoded differentially (no full parse).", st.DDSFastPath)
	p.Counter("bsoap_server_dds_full_parse_total", "Requests decoded by a full schema-driven parse.", st.DDSFullParses)
	reasons := make([]promtext.LabeledValue, 0, diffdeser.NumReasons-1)
	for r := diffdeser.ReasonNone + 1; r < diffdeser.NumReasons; r++ {
		reasons = append(reasons, promtext.LabeledValue{Label: r.String(), Value: st.DDSFullParseReasons[r.String()]})
	}
	p.CounterWithLabel("bsoap_server_dds_full_parse_reason_total",
		"Full parses, by why the differential path did not serve the request; sums to bsoap_server_dds_full_parse_total.", "reason", reasons)
	p.Counter("bsoap_server_dds_values_reparsed_total", "Leaf value regions re-lexed on the differential fast path.", st.DDSValuesReparsed)
	p.Counter("bsoap_server_dds_key_evictions_total", "Operation keys evicted from bounded deserializers.", st.DDSKeyEvictions)
	p.Counter("bsoap_server_replica_evictions_total", "Connection replicas evicted by the serverpool registry.", st.ReplicaEvictions)
	p.CounterWithLabel("bsoap_server_template_evictions_total", "Server replica entries evicted, by reason.", "reason",
		[]promtext.LabeledValue{
			{Label: "lru", Value: st.ReplicaEvictions - st.ReplicaBudgetEvictions},
			{Label: "budget", Value: st.ReplicaBudgetEvictions},
		})
	p.Gauge("bsoap_server_template_bytes", "Template memory accounted by the server replica registry.", st.TemplateBytes)
	p.Gauge("bsoap_server_template_bytes_high_water", "Lifetime maximum of bsoap_server_template_bytes.", st.TemplateBytesHighWater)
	p.Counter("bsoap_server_delta_applied_total", "Patch frames applied to a held base (differential transmission).", st.DeltaApplied)
	p.Counter("bsoap_server_delta_syncs_total", "Full bodies stored as patch bases.", st.DeltaSyncs)
	p.Counter("bsoap_server_delta_resyncs_total", "Patch frames rejected with 409 resync.", st.DeltaResyncs)
	p.Counter("bsoap_server_delta_base_evictions_total", "Patch bases dropped (cap, or a body that did not decode).", st.DeltaBaseEvictions)
	p.Counter("bsoap_server_delta_wire_bytes_total", "Bytes received on the wire for delta-negotiated requests.", st.DeltaWireBytes)
	p.Counter("bsoap_server_delta_represented_bytes_total", "Body bytes those delta-negotiated requests represent after reconstruction.", st.DeltaRepresented)
	p.HistogramWithLabel("bsoap_server_stage_seconds",
		"Server-side per-call latency attribution by pipeline stage.", "stage",
		StageSeconds(&m.Stages, serverStages))
	return p.Err()
}

// serverStages are the stages the server side attributes latency to.
var serverStages = []trace.Stage{
	trace.StageServerQueue, trace.StageDeltaApply, trace.StageDecode,
	trace.StageHandler, trace.StageRespond, trace.StageWrite,
}

// StageSeconds renders the given stages of a StageHist as labeled
// histogram series in seconds, attaching each stage's most recent
// traced span as an exemplar. Shared by the client and server
// registries (cold path: exposition only).
func StageSeconds(h *trace.StageHist, stages []trace.Stage) []promtext.LabeledHistogram {
	uppers := trace.StageBucketUppers()
	out := make([]promtext.LabeledHistogram, 0, len(stages))
	for _, st := range stages {
		counts := make([]int64, trace.StageBucketCount)
		d := h.Stage(st)
		lh := promtext.LabeledHistogram{
			Label:  st.String(),
			Uppers: uppers,
			Counts: counts,
			Count:  d.Buckets(counts),
			Sum:    float64(d.SumNs()) / 1e9,
		}
		if span, ns, ok := h.Exemplar(st); ok {
			lh.Exemplar = &promtext.Exemplar{
				LabelKey:   "span",
				LabelValue: strconv.FormatUint(span, 16),
				Value:      float64(ns) / 1e9,
			}
		}
		out = append(out, lh)
	}
	return out
}

// StatsHandler serves the registry as indented JSON.
func (m *ServerMetrics) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Snapshot())
	})
}
