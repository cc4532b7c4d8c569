package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"bsoap/internal/promtext"
)

// deadlineErr satisfies net.Error with Timeout() true.
type deadlineErr struct{}

func (deadlineErr) Error() string   { return "i/o timeout" }
func (deadlineErr) Timeout() bool   { return true }
func (deadlineErr) Temporary() bool { return true }

// TestServerMetricsClassification pins the deadline-vs-parse split,
// including wrapped timeouts (the read path wraps socket errors with
// context before they reach the registry).
func TestServerMetricsClassification(t *testing.T) {
	m := NewServerMetrics()
	m.recordReadError(deadlineErr{})
	m.recordReadError(fmt.Errorf("transport: read request: %w", deadlineErr{}))
	m.recordReadError(fmt.Errorf("transport: bad content-length"))

	st := m.Snapshot()
	if st.DeadlineHits != 2 {
		t.Errorf("deadline_hits = %d, want 2 (wrapped timeouts must classify as deadlines)", st.DeadlineHits)
	}
	if st.ParseErrors != 1 {
		t.Errorf("parse_errors = %d, want 1", st.ParseErrors)
	}
}

// TestServerMetricsCounters exercises the connection gauge and the
// request counters through their full lifecycle.
func TestServerMetricsCounters(t *testing.T) {
	m := NewServerMetrics()
	m.connOpened()
	m.connOpened()
	m.recordRequest(100)
	m.recordRequest(250)
	m.connClosed()

	st := m.Snapshot()
	if st.Requests != 2 || st.BytesIn != 350 {
		t.Errorf("requests/bytes = %d/%d, want 2/350", st.Requests, st.BytesIn)
	}
	if st.ActiveConns != 1 || st.ConnsTotal != 2 {
		t.Errorf("active/total conns = %d/%d, want 1/2", st.ActiveConns, st.ConnsTotal)
	}
}

// TestServerMetricsHandlers asserts both exposition shapes: the JSON
// endpoint round-trips through ServerStats, and the Prometheus endpoint
// passes the strict text-format parser with the expected families.
func TestServerMetricsHandlers(t *testing.T) {
	m := NewServerMetrics()
	m.connOpened()
	m.recordRequest(42)

	rec := httptest.NewRecorder()
	m.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	var st ServerStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats endpoint: %v\n%s", err, rec.Body.Bytes())
	}
	if st.Requests != 1 || st.BytesIn != 42 || st.ActiveConns != 1 {
		t.Errorf("JSON snapshot = %+v, want requests=1 bytes_in=42 active_conns=1", st)
	}

	rec = httptest.NewRecorder()
	promtext.Handler(m.WritePrometheus).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != promtext.ContentType {
		t.Errorf("content type = %q, want %q", got, promtext.ContentType)
	}
	ps, err := promtext.Validate(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, rec.Body.Bytes())
	}
	for _, name := range []string{
		"bsoap_server_requests_total",
		"bsoap_server_received_bytes_total",
		"bsoap_server_parse_errors_total",
		"bsoap_server_deadline_hits_total",
		"bsoap_server_conns_total",
		"bsoap_server_active_conns",
	} {
		if !ps.Names[name] {
			t.Errorf("exposition missing %s", name)
		}
	}
}
