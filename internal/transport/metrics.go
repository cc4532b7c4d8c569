package transport

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"

	"bsoap/internal/diffdeser"
	"bsoap/internal/promtext"
	"bsoap/internal/replica"
	"bsoap/internal/trace"
)

// counter indexes ServerMetrics.c and serverRows. The order is the
// Prometheus page's: WritePrometheus writes it as runs of rows between
// its explicit lines.
type counter int

const (
	cRequests counter = iota
	cBytesIn
	cParseErrors
	cDeadlineHits
	cConnsTotal
	cActiveConns
	cInFlight
	cRejectedConns
	cRejectedRequests
	cDrainAborted
	// cDDSFastPath+r counts decodes of diffdeser.Reason r: the fast path
	// (ReasonNone), then full parses by why it did not serve them.
	cDDSFastPath
	cDDSValuesReparsed = iota + counter(diffdeser.NumReasons) - 1
	cDDSRefused
	cReplicaEvictions
	cReplicaBudgetEvictions
	cDeltaApplied
	cDeltaSyncs
	cDeltaResyncs
	cDeltaBaseEvictions
	cDeltaWireBytes
	cDeltaRepresented
	cDecodedRequests
	cSelfCheckFails
	cMultiRefInlined
	numCounters
)

// serverRows declares every counter once: its family, label, help text
// and the ServerStats field it fills. Snapshot and WritePrometheus walk
// it.
var serverRows = [numCounters]promtext.Row[ServerStats]{
	cRequests:         {Family: "bsoap_server_requests_total", Help: "Requests fully received.", Field: func(s *ServerStats) *int64 { return &s.Requests }},
	cBytesIn:          {Family: "bsoap_server_received_bytes_total", Help: "Request body bytes received.", Field: func(s *ServerStats) *int64 { return &s.BytesIn }},
	cParseErrors:      {Family: "bsoap_server_parse_errors_total", Help: "Requests aborted by a framing or parse error.", Field: func(s *ServerStats) *int64 { return &s.ParseErrors }},
	cDeadlineHits:     {Family: "bsoap_server_deadline_hits_total", Help: "Request reads aborted by an I/O deadline.", Field: func(s *ServerStats) *int64 { return &s.DeadlineHits }},
	cConnsTotal:       {Family: "bsoap_server_conns_total", Help: "Connections accepted.", Field: func(s *ServerStats) *int64 { return &s.ConnsTotal }},
	cActiveConns:      {Family: "bsoap_server_active_conns", Help: "Connections currently open.", Gauge: true, Field: func(s *ServerStats) *int64 { return &s.ActiveConns }},
	cInFlight:         {Family: "bsoap_server_in_flight_requests", Help: "Requests currently being handled.", Gauge: true, Field: func(s *ServerStats) *int64 { return &s.InFlight }},
	cRejectedConns:    {Family: "bsoap_server_rejected_conns_total", Help: "Connections rejected 503 by the MaxConns admission cap.", Field: func(s *ServerStats) *int64 { return &s.RejectedConns }},
	cRejectedRequests: {Family: "bsoap_server_rejected_requests_total", Help: "Requests rejected 503 by the MaxInFlight admission cap.", Field: func(s *ServerStats) *int64 { return &s.RejectedRequests }},
	cDrainAborted:     {Family: "bsoap_server_drain_aborted_total", Help: "In-flight requests force-closed when a Shutdown deadline expired.", Field: func(s *ServerStats) *int64 { return &s.DrainAborted }},
	cDDSFastPath:      {Family: "bsoap_server_dds_fast_path_total", Help: "Requests decoded differentially (no full parse).", Field: func(s *ServerStats) *int64 { return &s.DDSFastPath }},
	cDDSFastPath + counter(diffdeser.ReasonNoTemplate): {Family: "bsoap_server_dds_full_parse_reason_total", Key: "reason", Label: diffdeser.ReasonNoTemplate.String(), Field: func(s *ServerStats) *int64 { return &s.reasons[diffdeser.ReasonNoTemplate] },
		Help: "Full parses, by why the differential path did not serve the request; sums to bsoap_server_dds_full_parse_total."},
	cDDSFastPath + counter(diffdeser.ReasonLength): {Family: "bsoap_server_dds_full_parse_reason_total", Label: diffdeser.ReasonLength.String(), Field: func(s *ServerStats) *int64 { return &s.reasons[diffdeser.ReasonLength] }},
	cDDSFastPath + counter(diffdeser.ReasonMarkup): {Family: "bsoap_server_dds_full_parse_reason_total", Label: diffdeser.ReasonMarkup.String(), Field: func(s *ServerStats) *int64 { return &s.reasons[diffdeser.ReasonMarkup] }},
	cDDSFastPath + counter(diffdeser.ReasonValue):  {Family: "bsoap_server_dds_full_parse_reason_total", Label: diffdeser.ReasonValue.String(), Field: func(s *ServerStats) *int64 { return &s.reasons[diffdeser.ReasonValue] }},
	cDDSValuesReparsed:      {Family: "bsoap_server_dds_values_reparsed_total", Help: "Leaf value regions re-lexed on the differential fast path.", Field: func(s *ServerStats) *int64 { return &s.DDSValuesReparsed }},
	cDDSRefused:             {Family: "bsoap_server_dds_refused_total", Help: "Full parses that kept no template: the operation's templates were full and in use.", Field: func(s *ServerStats) *int64 { return &s.DDSRefused }},
	cReplicaEvictions:       {Family: "bsoap_server_replica_evictions_total", Help: "Connection replicas evicted by the serverpool registry.", Field: func(s *ServerStats) *int64 { return &s.ReplicaEvictions }},
	cReplicaBudgetEvictions: {Field: func(s *ServerStats) *int64 { return &s.ReplicaBudgetEvictions }},
	cDeltaApplied:           {Family: "bsoap_server_delta_applied_total", Help: "Patch frames applied to a held base (differential transmission).", Field: func(s *ServerStats) *int64 { return &s.DeltaApplied }},
	cDeltaSyncs:             {Family: "bsoap_server_delta_syncs_total", Help: "Full bodies stored as patch bases.", Field: func(s *ServerStats) *int64 { return &s.DeltaSyncs }},
	cDeltaResyncs:           {Family: "bsoap_server_delta_resyncs_total", Help: "Patch frames rejected with 409 resync.", Field: func(s *ServerStats) *int64 { return &s.DeltaResyncs }},
	cDeltaBaseEvictions:     {Family: "bsoap_server_delta_base_evictions_total", Help: "Patch bases dropped (cap, or a body that did not decode).", Field: func(s *ServerStats) *int64 { return &s.DeltaBaseEvictions }},
	cDeltaWireBytes:         {Family: "bsoap_server_delta_wire_bytes_total", Help: "Bytes received on the wire for delta-negotiated requests.", Field: func(s *ServerStats) *int64 { return &s.DeltaWireBytes }},
	cDeltaRepresented:       {Family: "bsoap_server_delta_represented_bytes_total", Help: "Body bytes those delta-negotiated requests represent after reconstruction.", Field: func(s *ServerStats) *int64 { return &s.DeltaRepresented }},
	cDecodedRequests:        {Family: "bsoap_server_decoded_requests_total", Help: "Requests the serverpool runtime took to decode (a patch frame once applied).", Field: func(s *ServerStats) *int64 { return &s.DecodedRequests }},
	cSelfCheckFails:         {Family: "bsoap_server_self_check_failures_total", Help: "Differential decodes the SelfCheck reference parse disagreed with; each failed its request.", Field: func(s *ServerStats) *int64 { return &s.SelfCheckFails }},
	cMultiRefInlined:        {Family: "bsoap_server_multiref_inlined_total", Help: "Multi-ref request bodies inlined before decoding.", Field: func(s *ServerStats) *int64 { return &s.MultiRefInlined }},
}

// ServerMetrics is the server-side counterpart of pool.Metrics: a
// registry of counters a receiving endpoint cares about. One instance
// can back several Servers (e.g. a plain and a TLS listener) since every
// counter is an independent atomic.
type ServerMetrics struct {
	c [numCounters]atomic.Int64 // every counter, declared in serverRows

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
	DDSFullParseReasons map[string]int64            `json:"dds_full_parse_reasons"`
	reasons             [diffdeser.NumReasons]int64 // the reason rows, by Reason
	DDSValuesReparsed   int64                       `json:"dds_values_reparsed"`
	DDSRefused          int64                       `json:"dds_refused"` // full parses that kept no template (diffdeser.Info.Refused)
	ReplicaEvictions    int64                       `json:"replica_evictions"`

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

	// The serverpool runtime's own counts: requests it took to decode (a
	// patch frame once applied), fast-path decodes its SelfCheck refused,
	// and multi-ref bodies it inlined before decoding.
	DecodedRequests int64 `json:"decoded_requests"`
	SelfCheckFails  int64 `json:"self_check_failures"`
	MultiRefInlined int64 `json:"multiref_inlined"`
}

// Snapshot reads every counter. Counters are read independently, so a
// snapshot taken mid-request may be off by one between related fields.
func (m *ServerMetrics) Snapshot() ServerStats {
	var st ServerStats
	for i, r := range serverRows {
		*r.Field(&st) = m.c[i].Load()
	}
	st.DDSFullParseReasons = make(map[string]int64, diffdeser.NumReasons-1)
	for r := diffdeser.ReasonNone + 1; r < diffdeser.NumReasons; r++ {
		st.DDSFullParseReasons[r.String()] = st.reasons[r]
		st.DDSFullParses += st.reasons[r]
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
// parse under the reason the fast path did not serve it, and whether it
// was refused a template. The serverpool runtime calls this per request.
func (m *ServerMetrics) RecordDDSDecode(info diffdeser.Info) {
	m.c[cDDSFastPath+counter(info.Reason)].Add(1)
	if info.Reason == diffdeser.ReasonNone {
		m.c[cDDSValuesReparsed].Add(int64(info.ValuesReparsed))
	} else if info.Refused {
		m.c[cDDSRefused].Add(1)
	}
}

// RecordReplicaEviction counts one replica evicted by the serverpool
// registry; budget marks evictions driven by the MaxTemplateBytes
// budget rather than the replica count cap.
func (m *ServerMetrics) RecordReplicaEviction(budget bool) {
	m.c[cReplicaEvictions].Add(1)
	if budget {
		m.c[cReplicaBudgetEvictions].Add(1)
	}
}

// RecordDeltaApply counts one patch frame successfully applied to a held
// base: wire is the frame's size on the wire, represented the size of
// the body it reconstructs. The serverpool runtime and recorder call
// this per patch.
func (m *ServerMetrics) RecordDeltaApply(wire, represented int) {
	m.c[cDeltaApplied].Add(1)
	m.c[cDeltaWireBytes].Add(int64(wire))
	m.c[cDeltaRepresented].Add(int64(represented))
}

// RecordDeltaSync counts one full body stored as a patch base (both its
// wire and represented sizes are the body itself).
func (m *ServerMetrics) RecordDeltaSync(bodyLen int) {
	m.c[cDeltaSyncs].Add(1)
	m.c[cDeltaWireBytes].Add(int64(bodyLen))
	m.c[cDeltaRepresented].Add(int64(bodyLen))
}

// RecordDeltaBaseEviction counts one patch base dropped — LRU pressure,
// or a synced or patched body that would not decode (a frame that fails
// its checksum leaves the base as it was).
func (m *ServerMetrics) RecordDeltaBaseEviction() { m.c[cDeltaBaseEvictions].Add(1) }

// RecordDeltaResync counts one patch frame refused with a resync. The
// transport answers the 409 but leaves the count to the handler, so a
// registry both layers share counts it once.
func (m *ServerMetrics) RecordDeltaResync() { m.c[cDeltaResyncs].Add(1) }

// RecordDecodedRequest, RecordSelfCheckFail and RecordMultiRefInline
// count the serverpool runtime's own events (see ServerStats).
func (m *ServerMetrics) RecordDecodedRequest() { m.c[cDecodedRequests].Add(1) }
func (m *ServerMetrics) RecordSelfCheckFail()  { m.c[cSelfCheckFails].Add(1) }
func (m *ServerMetrics) RecordMultiRefInline() { m.c[cMultiRefInlined].Add(1) }

// SetTemplateSource installs the function that snapshots the replica
// registry's byte accounting (serverpool wires this at startup).
func (m *ServerMetrics) SetTemplateSource(f func() replica.Counters) {
	m.templateSource.Store(&f)
}

// connOpened / connClosed maintain the active-connection gauge.
func (m *ServerMetrics) connOpened() {
	m.c[cActiveConns].Add(1)
	m.c[cConnsTotal].Add(1)
}

func (m *ServerMetrics) connClosed() { m.c[cActiveConns].Add(-1) }

// recordRequest counts one fully received request body.
func (m *ServerMetrics) recordRequest(bodyLen int) {
	m.c[cRequests].Add(1)
	m.c[cBytesIn].Add(int64(bodyLen))
}

// recordReadError classifies a failed request read: a timeout (possibly
// wrapped) is a deadline hit, anything else that isn't a clean close is
// a parse (or framing) error.
func (m *ServerMetrics) recordReadError(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		m.c[cDeadlineHits].Add(1)
		return
	}
	m.c[cParseErrors].Add(1)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): the table's rows and the derived and sourced
// values between them.
func (m *ServerMetrics) WritePrometheus(w io.Writer) error {
	st := m.Snapshot()
	p := promtext.New(w)
	rows := func(from, to counter) { promtext.Rows(p, serverRows[from:to], &st) }

	rows(0, cDDSFastPath+1)
	p.Counter("bsoap_server_dds_full_parse_total", "Requests decoded by a full schema-driven parse.", st.DDSFullParses)
	rows(cDDSFastPath+1, cReplicaBudgetEvictions)
	p.CounterWithLabel("bsoap_server_template_evictions_total", "Server replica entries evicted, by reason.", "reason",
		[]promtext.LabeledValue{
			{Label: "lru", Value: st.ReplicaEvictions - st.ReplicaBudgetEvictions},
			{Label: "budget", Value: st.ReplicaBudgetEvictions},
		})
	p.Gauge("bsoap_server_template_bytes", "Template memory accounted by the server replica registry.", st.TemplateBytes)
	p.Gauge("bsoap_server_template_bytes_high_water", "Lifetime maximum of bsoap_server_template_bytes.", st.TemplateBytesHighWater)
	rows(cReplicaBudgetEvictions, numCounters)
	p.HistogramWithLabel("bsoap_server_stage_seconds",
		"Server-side per-call latency attribution by pipeline stage.", "stage",
		promtext.StageSeconds(&m.Stages, serverStages))
	return p.Err()
}

// serverStages are the stages the server side attributes latency to.
var serverStages = []trace.Stage{
	trace.StageServerQueue, trace.StageDeltaApply, trace.StageDecode,
	trace.StageHandler, trace.StageRespond, trace.StageWrite,
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
