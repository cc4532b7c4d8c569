package pool

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"bsoap/internal/promtext"
	"bsoap/internal/replica"
)

// pinClientCounters sets every counter of m to a value of its own, the
// latency histogram and the client stages to fixed observations, and
// both callback sources to constants.
func pinClientCounters(m *Metrics) {
	for c, v := range map[counter]int64{
		cCalls:                1001,
		cErrDial:              3,
		cErrDeadline:          5,
		cErrBudget:            7,
		cErrSend:              11,
		cMatchFirstTime:       13,
		cMatchContent:         17,
		cMatchStructural:      19,
		cMatchPartial:         23,
		cMatchFull:            29,
		cBytesWire:            1000,
		cBytesRepresented:     5000,
		cBytesSerialized:      1200,
		cDeltaSends:           31,
		cDeltaResyncs:         37,
		cValuesRewritten:      41,
		cTagShifts:            43,
		cShifts:               47,
		cSteals:               53,
		cCheckouts:            59,
		cCheckoutWaits:        61,
		cDials:                67,
		cRedials:              71,
		cDialFailures:         73,
		cRetries:              79,
		cTemplateRebinds:      83,
		cEvictions:            97,
		cBudgetEvictions:      89,
		cDegradedFTS:          101,
		cRetryBudgetExhausted: 103,
		cAsyncCalls:           211,
		cResolved:             200,
		cPipelineDepth:        8,
		cPipelineStalls:       107,
	} {
		m.c[c].Store(v)
	}
	pinClientObservations(m)
}

// pinClientObservations gives the histograms and sources fixed values.
func pinClientObservations(m *Metrics) {
	m.lat.Observe(1500)
	m.lat.Observe(2_000_000)
	for i, st := range clientStages {
		m.Stages.Observe(st, int64(i+1)*1000, uint64(0xa0+i))
	}
	m.SetFaultSource(func() int64 { return 113 })
	counters := func() replica.Counters { return replica.Counters{Bytes: 4096, HighWater: 8192, Refused: 127} }
	m.templateSource.Store(&counters)
}

// exemplar matches the span id an exemplar carries.
var exemplar = regexp.MustCompile(`span="[0-9a-f]+"`)

// checkGolden compares got (exemplar span ids normalised) with
// testdata/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = exemplar.ReplaceAll(got, []byte(`span="X"`))
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from testdata/%s:\n%s", name, name, got)
	}
}

// TestExpositionGolden pins both shapes of the client registry — the
// Prometheus page (every family name, type, help text, label set and
// value) and the JSON snapshot (every key) — against golden files.
func TestExpositionGolden(t *testing.T) {
	m := newMetrics()
	pinClientCounters(m)
	var prom, js bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if _, err := promtext.Validate(bytes.NewReader(prom.Bytes())); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	checkGolden(t, "client.prom", prom.Bytes())
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "client.json", js.Bytes())
}
