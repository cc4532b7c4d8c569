package pool

import (
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/faultwire"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// newAckPool dials a pool at a loopback server that answers every
// request with an empty 200; the server counts requests and body bytes.
func newAckPool(t testing.TB, opts Options) (*Pool, *transport.Server) {
	t.Helper()
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	opts.Addr = srv.Addr()
	opts.Sender.ReadTimeout = 5 * time.Second
	opts.Sender.WriteTimeout = 5 * time.Second
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, srv
}

func TestPoolTemplateReuseAcrossMessages(t *testing.T) {
	// One replica forces both messages onto the same engine: the second
	// message's first call must find the first message's template (warm
	// start), not pay a first-time send.
	p, _ := newAckPool(t, Options{Replicas: 1})

	m1 := workload.NewDoubles(64, workload.FillIntermediate)
	ci, err := p.Call(m1.Msg)
	if err != nil || ci.Match != core.FirstTime {
		t.Fatalf("call 1: %v %v, want first-time", ci.Match, err)
	}

	m2 := workload.NewDoubles(64, workload.FillIntermediate)
	ci, err = p.Call(m2.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.StructuralMatch {
		t.Fatalf("call 2 (new message, same structure): %v, want structural match (warm template)", ci.Match)
	}
	if got := p.Stats().TemplateRebinds; got != 1 {
		t.Fatalf("template rebinds = %d, want 1", got)
	}
}

func TestPoolContentMatchAffinity(t *testing.T) {
	p, _ := newAckPool(t, Options{Replicas: 1})
	d := workload.NewDoubles(64, workload.FillIntermediate)

	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.FirstTime {
		t.Fatalf("call 1: %v %v", ci.Match, err)
	}
	// Untouched resend through the pool must classify as a content
	// match, exactly as a dedicated stub would.
	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.ContentMatch {
		t.Fatalf("call 2: %v %v, want content match", ci.Match, err)
	}
	d.TouchFraction(0.25)
	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.StructuralMatch {
		t.Fatalf("call 3: %v %v, want structural match", ci.Match, err)
	}
}

func TestPoolDistinctOperationsDistinctTemplates(t *testing.T) {
	p, _ := newAckPool(t, Options{Replicas: 1})
	d := workload.NewDoubles(16, workload.FillIntermediate)
	i := workload.NewInts(16, workload.FillIntermediate)
	w := workload.NewMIOs(16, workload.FillIntermediate)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(i.Msg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(w.Msg); err != nil {
		t.Fatal(err)
	}
	if got := p.Entries(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	if got := p.TemplateCount(); got != 3 {
		t.Fatalf("templates = %d, want 3", got)
	}
}

func TestPoolRetriesBrokenConnection(t *testing.T) {
	// The third write resets the connection under it.
	inj := faultwire.NewScripted(faultwire.Options{},
		faultwire.Step{Op: faultwire.OpWrite, Skip: 2, Kind: faultwire.Reset})
	p, _ := newAckPool(t, Options{
		Size:     1,
		Replicas: 1,
		Sender:   transport.SenderOptions{Dialer: inj.Dial(nil)},
	})

	d := workload.NewDoubles(32, workload.FillIntermediate)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	d.TouchFraction(0.5)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatalf("call 2: %v", err)
	}
	// Third call hits the scripted failure, repairs the slot with a
	// redial, and retries — the caller never sees the error.
	d.TouchFraction(0.5)
	ci, err := p.Call(d.Msg)
	if err != nil {
		t.Fatalf("call 3 should have been retried transparently: %v", err)
	}
	// The failed send poisoned the template, so the transparent retry is
	// a degraded first-time send — never a diff against bytes the server
	// may have half-received.
	if ci.Match != core.FirstTime || !ci.Degraded {
		t.Fatalf("retried call: match=%v degraded=%v, want degraded first-time send", ci.Match, ci.Degraded)
	}
	st := p.Stats()
	if st.Errors != 0 || st.Retries != 1 || st.Dials != 1 || st.Redials != 1 {
		t.Fatalf("stats after retry: errors=%d retries=%d dials=%d redials=%d, want 0/1/1/1",
			st.Errors, st.Retries, st.Dials, st.Redials)
	}
	if st.DegradedFTS != 1 {
		t.Fatalf("degraded_fts=%d, want 1", st.DegradedFTS)
	}
}

func TestPoolCallAfterCloseFails(t *testing.T) {
	p, _ := newAckPool(t, Options{})
	p.Close()
	d := workload.NewDoubles(8, workload.FillMin)
	if _, err := p.Call(d.Msg); err == nil {
		t.Fatal("Call after Close succeeded")
	}
}

// TestSerialDeltaNegotiates: Delta alone is enough on a serial pool. The
// pool reads the server's sync acknowledgements itself, so every warm
// call after the first sync goes out as a patch frame.
func TestSerialDeltaNegotiates(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Respond: true,
		Handler: func(req *transport.Request) ([]byte, error) {
			if req.DeltaMode == transport.DeltaSync {
				req.DeltaAck, req.DeltaAckTID, req.DeltaAckEpoch = true, req.DeltaTID, req.DeltaEpoch
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := New(Options{Addr: srv.Addr(), Size: 1, Replicas: 1, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d := workload.NewDoubles(16, workload.FillMin)
	for i := 0; i < 4; i++ {
		d.Arr.Set(i, float64(i))
		if _, err := p.Call(d.Msg); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := p.Stats(); st.DeltaSends != 3 {
		t.Fatalf("%d of 4 calls sent as patch frames, want 3 (every call after the first sync)", st.DeltaSends)
	}
}

// TestNon2xxFailsTheCall pins what a non-2xx answer does to a Call: the
// response arrived whole on a healthy connection, so the call fails and
// its template is suspect — the next call is a degraded first-time send
// — and nothing is redialed or retried.
func TestNon2xxFailsTheCall(t *testing.T) {
	var refuse atomic.Bool
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Respond: true,
		Handler: func(*transport.Request) ([]byte, error) {
			if refuse.Load() {
				return nil, errors.New("refused")
			}
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := New(Options{Addr: srv.Addr(), Size: 1, Replicas: 1, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	d := workload.NewDoubles(16, workload.FillIntermediate)
	if _, err := p.Call(d.Msg); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	refuse.Store(true)
	d.TouchFraction(0.5)
	if _, err := p.Call(d.Msg); err == nil {
		t.Fatal("call 2 succeeded; the server answered 500")
	}
	refuse.Store(false)
	if ci, err := p.Call(d.Msg); err != nil || ci.Match != core.FirstTime || !ci.Degraded {
		t.Fatalf("call 3: %v degraded=%v %v, want a degraded first-time send", ci.Match, ci.Degraded, err)
	}
	st := p.Stats()
	if st.Errors != 1 || st.Retries != 0 || st.Dials != 1 || st.Redials != 0 || srv.Requests() != 3 {
		t.Fatalf("errors=%d retries=%d dials=%d redials=%d requests=%d, want 1/0/1/0/3",
			st.Errors, st.Retries, st.Dials, st.Redials, srv.Requests())
	}
}

// TestPoolSilentServerDeadline points a pool at a server that reads
// requests and never answers: the call fails on its read timeout,
// classified as a deadline, instead of blocking.
func TestPoolSilentServerDeadline(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p, err := New(Options{Addr: srv.Addr(), Size: 1,
		Sender: transport.SenderOptions{ReadTimeout: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	d := workload.NewDoubles(8, workload.FillIntermediate)
	if _, err := p.Call(d.Msg); err == nil {
		t.Fatal("call to a silent server succeeded")
	}
	if st := p.Stats(); st.Errors != 1 || st.ErrorsByKind.Deadline != 1 {
		t.Fatalf("errors=%d errors_by_kind=%+v, want one deadline", st.Errors, st.ErrorsByKind)
	}
}

// TestPoolDefaultSocketTimeouts: zero socket timeouts become 10 s, and
// explicit ones stand.
func TestPoolDefaultSocketTimeouts(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Sender.ReadTimeout != 10*time.Second || o.Sender.WriteTimeout != 10*time.Second {
		t.Fatalf("default read/write timeouts %v/%v, want 10s/10s", o.Sender.ReadTimeout, o.Sender.WriteTimeout)
	}
	o = Options{Sender: transport.SenderOptions{ReadTimeout: time.Second, WriteTimeout: 2 * time.Second}}.withDefaults()
	if o.Sender.ReadTimeout != time.Second || o.Sender.WriteTimeout != 2*time.Second {
		t.Fatalf("explicit read/write timeouts became %v/%v", o.Sender.ReadTimeout, o.Sender.WriteTimeout)
	}
}

func TestPoolRequiresEndpoint(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without Addr succeeded")
	}
}

func TestMetricsJSON(t *testing.T) {
	p, _ := newAckPool(t, Options{Replicas: 1})
	d := workload.NewDoubles(64, workload.FillIntermediate)
	for i := 0; i < 5; i++ {
		if _, err := p.Call(d.Msg); err != nil {
			t.Fatal(err)
		}
		d.TouchFraction(0.1)
	}

	var sb strings.Builder
	if err := p.Metrics().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("endpoint output is not JSON: %v", err)
	}
	for _, key := range []string{
		"calls", "content_matches", "bytes_on_wire", "bytes_saved",
		"pool_checkouts", "latency_p99_ns",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing %q: %s", key, sb.String())
		}
	}
	if decoded["calls"].(float64) != 5 {
		t.Errorf("calls = %v, want 5", decoded["calls"])
	}
	// 1 first-time send serialized everything; the 4 warm calls
	// rewrote at most a few values each: savings must be visible.
	if decoded["bytes_saved"].(float64) <= 0 {
		t.Errorf("bytes_saved = %v, want > 0", decoded["bytes_saved"])
	}
}

// TestHistogramQuantiles reads the call-latency quantiles where
// pool.Stats reports them (the distribution itself is trace.Hist).
func TestHistogramQuantiles(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 90; i++ {
		m.RecordCall(core.CallInfo{}, nil, time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.RecordCall(core.CallInfo{}, nil, time.Millisecond)
	}
	s := m.Snapshot()
	if s.LatencyP50 > 2048 {
		t.Errorf("p50 = %v, want ~1µs bucket", s.LatencyP50)
	}
	if s.LatencyP99 < 500000 {
		t.Errorf("p99 = %v, want ~1ms bucket", s.LatencyP99)
	}
}

// TestTemplateCountDuringFirstTimeSends reads the template count while
// calls are inserting and evicting templates: a stub's store is guarded
// only by its engine lock, so this is the test that fails under -race if
// TemplateCount reads a store without it.
func TestTemplateCountDuringFirstTimeSends(t *testing.T) {
	p, _ := newAckPool(t, Options{Replicas: 2, MaxTemplateBytes: 16 << 10})
	done := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				// A fresh size each call is a new signature: a first-time
				// send that inserts into a stub's store, while the budget
				// evicts and releases older entries.
				m := workload.NewInts(1+(i*2+w)%64, workload.FillIntermediate)
				if _, err := p.Call(m.Msg); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}()
	for {
		select {
		case <-done:
			if n := p.TemplateCount(); n < 1 {
				t.Fatalf("templates = %d after the calls, want at least 1", n)
			}
			return
		default:
			p.TemplateCount()
		}
	}
}
