package trace

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestDisabledRecordsNothing(t *testing.T) {
	tr := New(64)
	tr.Rec(1, KindCallStart, 1, 0, 0)
	if d := tr.Snapshot(); len(d.Events) != 0 || d.Recorded != 0 {
		t.Fatalf("disabled tracer recorded %d events (%d total)", len(d.Events), d.Recorded)
	}
}

func TestRecordAndSnapshotOrder(t *testing.T) {
	tr := New(64)
	tr.Enable()
	span := tr.BeginSpan()
	for i := 0; i < 10; i++ {
		tr.Rec(span, KindRewrite, int64(i), 0, 0)
	}
	d := tr.Snapshot()
	if len(d.Events) != 10 {
		t.Fatalf("got %d events, want 10", len(d.Events))
	}
	for i, ev := range d.Events {
		if ev.A != int64(i) || ev.Kind != "rewrite" || ev.Span != span {
			t.Fatalf("event %d out of order or malformed: %+v", i, ev)
		}
		if i > 0 && ev.Seq <= d.Events[i-1].Seq {
			t.Fatalf("sequence not increasing at %d", i)
		}
	}
}

// TestRingWraparound fills the ring several times over and checks the
// snapshot retains exactly the newest ring-size events, oldest-first,
// with the overwritten count reported.
func TestRingWraparound(t *testing.T) {
	tr := New(16) // rounds to 16 slots
	tr.Enable()
	const total = 100
	for i := 0; i < total; i++ {
		tr.Rec(7, KindRewrite, int64(i), 0, 0)
	}
	d := tr.Snapshot()
	if d.Recorded != total {
		t.Fatalf("recorded %d, want %d", d.Recorded, total)
	}
	if want := uint64(total - 16); d.Dropped != want {
		t.Fatalf("dropped %d, want %d", d.Dropped, want)
	}
	if len(d.Events) != 16 {
		t.Fatalf("retained %d events, want 16", len(d.Events))
	}
	for i, ev := range d.Events {
		if want := int64(total - 16 + i); ev.A != want {
			t.Fatalf("event %d: A=%d, want %d (newest ring-size events)", i, ev.A, want)
		}
	}
}

func TestClear(t *testing.T) {
	tr := New(16)
	tr.Enable()
	for i := 0; i < 40; i++ {
		tr.Rec(1, KindShift, int64(i), 0, 0)
	}
	tr.Clear()
	if d := tr.Snapshot(); len(d.Events) != 0 || d.Recorded != 0 {
		t.Fatalf("after Clear: %d events, %d recorded", len(d.Events), d.Recorded)
	}
	tr.Rec(2, KindSteal, 5, 0, 0)
	d := tr.Snapshot()
	if len(d.Events) != 1 || d.Events[0].Kind != "steal" {
		t.Fatalf("post-Clear recording broken: %+v", d.Events)
	}
}

// TestConcurrentWriters hammers one ring from many goroutines; under
// -race this proves slot publication is synchronized, and the snapshot
// taken mid-flight must contain only well-formed events.
func TestConcurrentWriters(t *testing.T) {
	tr := New(256)
	tr.Enable()
	const writers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			span := tr.BeginSpan()
			for i := 0; i < each; i++ {
				tr.Rec(span, Kind(i%kindCount), int64(w), int64(i), 0)
				if i%500 == 0 {
					tr.Snapshot() // readers race writers
				}
			}
		}(w)
	}
	wg.Wait()
	d := tr.Snapshot()
	if d.Recorded != writers*each {
		t.Fatalf("recorded %d, want %d", d.Recorded, writers*each)
	}
	if len(d.Events) != 256 {
		t.Fatalf("retained %d events, want full ring (256)", len(d.Events))
	}
	for i, ev := range d.Events {
		if ev.A < 0 || ev.A >= writers || ev.B < 0 || ev.B >= each {
			t.Fatalf("event %d torn or malformed: %+v", i, ev)
		}
	}
}

// TestSamplingDeterminism pins the exact subset a seeded sampler
// records: the same seed must select the same occurrences, a different
// seed a shifted phase.
func TestSamplingDeterminism(t *testing.T) {
	record := func(seed uint64) []int64 {
		tr := New(128)
		tr.Enable()
		tr.SetSampling(KindRewrite, 4, seed)
		for i := 0; i < 32; i++ {
			tr.Rec(1, KindRewrite, int64(i), 0, 0)
		}
		d := tr.Snapshot()
		out := make([]int64, 0, len(d.Events))
		for _, ev := range d.Events {
			out = append(out, ev.A)
		}
		return out
	}

	a, b := record(0), record(0)
	if len(a) != 8 {
		t.Fatalf("rate-4 sampling of 32 events recorded %d, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	for i, v := range a {
		if want := int64(i * 4); v != want {
			t.Fatalf("seed 0 phase: event %d = %d, want %d", i, v, want)
		}
	}
	c := record(1)
	for i, v := range c {
		if want := int64(i*4 + 3); v != want {
			t.Fatalf("seed 1 phase: event %d = %d, want %d", i, v, want)
		}
	}
	// Other kinds are unaffected by KindRewrite's sampling rate.
	tr := New(128)
	tr.Enable()
	tr.SetSampling(KindRewrite, 1000, 0)
	tr.Rec(1, KindShift, 1, 0, 0)
	tr.Rec(1, KindShift, 2, 0, 0)
	if d := tr.Snapshot(); len(d.Events) != 2 {
		t.Fatalf("unsampled kind affected: %d events", len(d.Events))
	}
}

// TestRecordingAllocFree gates the tracer's own contract: both the
// enabled-but-idle path (gate check on a disabled kind via sampling) and
// the full recording path perform zero heap allocations.
func TestRecordingAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	tr := New(1024)

	// Disabled: the gate alone.
	if got := testing.AllocsPerRun(200, func() {
		tr.Rec(1, KindRewrite, 1, 2, 3)
	}); got != 0 {
		t.Errorf("disabled Rec allocates %v/op, want 0", got)
	}

	tr.Enable()
	span := tr.BeginSpan()
	op := tr.OpID("urn:bench#echo") // interned once, cold
	if got := testing.AllocsPerRun(200, func() {
		tr.Rec(span, KindCallStart, op, 0, 0)
		tr.Rec(span, KindRewrite, 7, 12, 14)
		tr.Rec(span, KindCallEnd, 3, 96032, 14)
	}); got != 0 {
		t.Errorf("enabled Rec allocates %v/op, want 0", got)
	}

	// Warm OpID lookups are allocation-free too.
	if got := testing.AllocsPerRun(200, func() {
		tr.OpID("urn:bench#echo")
	}); got != 0 {
		t.Errorf("warm OpID allocates %v/op, want 0", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	tr := New(64)
	tr.Enable()
	span := tr.BeginSpan()
	tr.Rec(span, KindCallStart, tr.OpID("echo"), 0, 0)
	tr.Rec(span, KindCallEnd, 1, 100, 0)

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/?clear=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var d Dump
	if err := json.NewDecoder(res.Body).Decode(&d); err != nil {
		t.Fatalf("endpoint output is not JSON: %v", err)
	}
	if len(d.Events) != 2 || d.Events[0].Kind != "call-start" || d.Events[1].Kind != "call-end" {
		t.Fatalf("unexpected dump: %+v", d.Events)
	}
	if d.Ops[d.Events[0].A] != "echo" {
		t.Fatalf("op table missing: %+v", d.Ops)
	}
	// ?clear=1 emptied the ring.
	if d2 := tr.Snapshot(); len(d2.Events) != 0 {
		t.Fatalf("clear=1 left %d events", len(d2.Events))
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := 0; k < kindCount; k++ {
		name := Kind(k).String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromString(name)
		if !ok || got != Kind(k) {
			t.Fatalf("round trip failed for %q", name)
		}
	}
}

// TestStageObservePutsSampleOnTimeline: an observation made under a span
// is also a stage event on that span's timeline, with the recorder off
// or no span it is only a histogram count, and neither allocates.
func TestStageObservePutsSampleOnTimeline(t *testing.T) {
	Default.Clear()
	var h StageHist
	h.Observe(StageWire, 100, 7) // recorder off: histogram only
	Enable()
	defer Disable()
	h.Observe(StageWire, 200, 0) // no span: histogram only
	h.Observe(StageDecode, 300, 7)
	h.Observe(StageDecode, -5, 7) // clamped like the histogram's sample

	var got [][3]int64
	for _, ev := range Default.Snapshot().Events {
		if ev.Kind != KindStage.String() {
			t.Fatalf("unexpected event %+v", ev)
		}
		got = append(got, [3]int64{int64(ev.Span), ev.A, ev.B})
	}
	want := [][3]int64{{7, int64(StageDecode), 300}, {7, int64(StageDecode), 0}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stage events = %v, want %v", got, want)
	}
	var counts [StageBucketCount]int64
	if n := h.Stage(StageWire).Buckets(counts[:]); n != 2 {
		t.Fatalf("wire observations = %d, want 2", n)
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(200, func() { h.Observe(StageDecode, 300, 7) }); a != 0 {
			t.Errorf("traced Observe allocates %v/op, want 0", a)
		}
	}
	Default.Clear()
}

// TestHistQuantile pins the ceiling rank and the clamp to the observed
// maximum: q=0.99 over 10 observations selects the 10th, the lone slow
// one, and no quantile reads above it.
func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram reported a quantile")
	}
	for i := 0; i < 9; i++ {
		h.Observe(1000)
	}
	h.Observe(100e6)
	h.Observe(-5) // counts as zero
	if p50 := h.Quantile(0.50); p50 > 2048 {
		t.Errorf("p50 = %d, want the 1µs bucket", p50)
	}
	if p99, p100 := h.Quantile(0.99), h.Quantile(1); p99 != 100e6 || p100 != 100e6 || h.MaxNs() != 100e6 {
		t.Errorf("p99 = %d, p100 = %d, max = %d, want the observed max", p99, p100, h.MaxNs())
	}
	buckets := make([]int64, StageBucketCount)
	if n := h.Buckets(buckets); n != 11 || h.Count() != 11 || buckets[0] != 1 || h.SumNs() != 9*1000+100e6 {
		t.Errorf("count %d, zero bucket %d, sum %d", n, buckets[0], h.SumNs())
	}
}
