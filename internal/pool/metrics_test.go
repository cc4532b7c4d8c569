package pool

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/promtext"
	"bsoap/internal/trace"
)

// timeoutErr satisfies net.Error with Timeout() true — a socket deadline
// as the transport surfaces it.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestClassifyErr pins the bucket precedence: budget exhaustion wins
// over the dial/deadline cause that consumed it, the dial sentinel wins
// over the generic timeout check (dial errors can themselves be
// timeouts), and anything else is a plain send error.
func TestClassifyErr(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want counter
	}{
		{"budget", fmt.Errorf("pool: no budget: %w (last error: reset)", errRetryBudgetExhausted), cErrBudget},
		{"dial", fmt.Errorf("pool: unavailable after 4 attempts: %w: %w", errDialFailed, timeoutErr{}), cErrDial},
		{"budget-over-dial", fmt.Errorf("%w: %w", errRetryBudgetExhausted, errDialFailed), cErrBudget},
		{"deadline", fmt.Errorf("transport: write body: %w", timeoutErr{}), cErrDeadline},
		{"send", fmt.Errorf("transport: connection reset"), cErrSend},
	}
	for _, c := range cases {
		if got := classifyErr(c.err); got != c.want {
			t.Errorf("classifyErr(%s) = %s, want %s", c.name, clientRows[got].Label, clientRows[c.want].Label)
		}
	}
}

// TestRecordCallFailure asserts a failed call still contributes its byte
// and repair counters (a failed send may have pushed most of the
// template onto the wire) while match counts and the latency histogram
// stay success-only.
func TestRecordCallFailure(t *testing.T) {
	m := newMetrics()
	ci := core.CallInfo{
		Match: core.PartialMatch, Bytes: 1234, WireBytes: 1234, BytesSerialized: 120,
		ValuesRewritten: 7, TagShifts: 2, Shifts: 1, Steals: 3,
	}
	m.RecordCall(ci, fmt.Errorf("wrapped: %w", timeoutErr{}), 5*time.Millisecond)

	s := m.Snapshot()
	if s.Calls != 1 || s.Errors != 1 {
		t.Fatalf("calls/errors = %d/%d, want 1/1", s.Calls, s.Errors)
	}
	if s.ErrorsByKind.Deadline != 1 {
		t.Errorf("errors_by_kind = %+v, want deadline=1", s.ErrorsByKind)
	}
	if s.BytesOnWire != 1234 || s.BytesSerialized != 120 {
		t.Errorf("bytes = %d/%d, want 1234/120 (failed calls must keep their bytes)",
			s.BytesOnWire, s.BytesSerialized)
	}
	if s.ValuesRewritten != 7 || s.TagShifts != 2 || s.Shifts != 1 || s.Steals != 3 {
		t.Errorf("repair counters = %d/%d/%d/%d, want 7/2/1/3",
			s.ValuesRewritten, s.TagShifts, s.Shifts, s.Steals)
	}
	if s.PartialMatches != 0 {
		t.Errorf("partial matches = %d, want 0 (match counts are success-only)", s.PartialMatches)
	}
	if s.LatencyCount != 0 {
		t.Errorf("latency count = %d, want 0 (histogram is success-only)", s.LatencyCount)
	}
}

// TestHistogramQuantileRank pins the ceiling rank: q=0.99 over 10
// observations must select the 10th (the lone slow one), not truncate to
// the 9th and report a bucket below the true quantile.
func TestHistogramQuantileRank(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 9; i++ {
		m.RecordCall(core.CallInfo{}, nil, time.Microsecond)
	}
	m.RecordCall(core.CallInfo{}, nil, 100*time.Millisecond)

	s := m.Snapshot()
	if s.LatencyP99 < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms (rank must be ceil(0.99*10)=10)", s.LatencyP99)
	}
	if s.LatencyP50 > 10*time.Microsecond {
		t.Errorf("p50 = %v, want within the fast bucket", s.LatencyP50)
	}
	// The reported quantile is clamped to the observed max.
	if s.LatencyP99 != 100*time.Millisecond || s.LatencyMax != 100*time.Millisecond {
		t.Errorf("p99 = %v, max = %v, want exactly the observed max", s.LatencyP99, s.LatencyMax)
	}
}

// TestStatsExposesRawBuckets asserts the JSON snapshot carries the raw
// histogram (buckets + count + sum), so offline analysis is not limited
// to the three convenience quantiles.
func TestStatsExposesRawBuckets(t *testing.T) {
	m := newMetrics()
	m.RecordCall(core.CallInfo{Match: core.ContentMatch}, nil, 3*time.Millisecond)
	m.RecordCall(core.CallInfo{Match: core.ContentMatch}, nil, 7*time.Millisecond)

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Buckets []int64 `json:"latency_buckets"`
		Count   int64   `json:"latency_count"`
		SumNs   int64   `json:"latency_sum_ns"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != 2 {
		t.Fatalf("latency_count = %d, want 2", got.Count)
	}
	if got.SumNs != int64(10*time.Millisecond) {
		t.Errorf("latency_sum_ns = %d, want %d", got.SumNs, int64(10*time.Millisecond))
	}
	var total int64
	for _, b := range got.Buckets {
		total += b
	}
	if total != got.Count {
		t.Errorf("bucket counts sum to %d, want latency_count %d", total, got.Count)
	}
}

// TestWritePrometheusValid runs the client exposition through the strict
// text-format parser: every family well-formed, histogram cumulative and
// +Inf-terminated.
func TestWritePrometheusValid(t *testing.T) {
	m := newMetrics()
	m.RecordCall(core.CallInfo{Match: core.ContentMatch, Bytes: 100, BytesSerialized: 10}, nil, time.Millisecond)
	m.RecordCall(core.CallInfo{}, fmt.Errorf("boom"), time.Millisecond)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := promtext.Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.Bytes())
	}
	for _, name := range []string{
		"bsoap_client_calls_total",
		"bsoap_client_call_errors_total",
		"bsoap_client_matches_total",
		"bsoap_client_call_latency_seconds_bucket",
		"bsoap_client_call_latency_seconds_count",
	} {
		if !st.Names[name] {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// TestPrometheusValidWhileRecording scrapes the client page while a
// goroutine records calls and stage times: every page must parse, each
// histogram cumulative up to its +Inf bucket, however a scrape races an
// Observe between the bucket it bumps and the count.
func TestPrometheusValidWhileRecording(t *testing.T) {
	m := newMetrics()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := time.Duration(1+i%4096) * time.Microsecond
			m.RecordCall(core.CallInfo{Match: core.ContentMatch}, nil, d)
			m.Stages.Observe(trace.StageSerialize, int64(d), 0)
		}
	}()
	defer func() { close(stop); <-done }()
	var buf bytes.Buffer
	for i := 0; i < 500; i++ {
		buf.Reset()
		if err := m.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := promtext.Validate(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("page %d: invalid exposition: %v", i, err)
		}
	}
}
