package transport

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"bsoap/internal/promtext"
	"bsoap/internal/replica"
)

// pinServerCounters sets every counter of m to a value of its own, the
// server stages to fixed observations, and the template source to
// constants.
func pinServerCounters(m *ServerMetrics) {
	for c, v := range map[counter]int64{
		cRequests:               1001,
		cBytesIn:                2002,
		cParseErrors:            3,
		cDeadlineHits:           5,
		cActiveConns:            7,
		cConnsTotal:             11,
		cInFlight:               13,
		cRejectedConns:          17,
		cRejectedRequests:       19,
		cDrainAborted:           23,
		cDDSFastPath:            29,
		cDDSFastPath + 1:        31,
		cDDSFastPath + 2:        37,
		cDDSFastPath + 3:        41,
		cDDSFastPath + 4:        43,
		cDDSFastPath + 5:        47,
		cDDSValuesReparsed:      53,
		cDDSRefused:             59,
		cReplicaEvictions:       71,
		cReplicaBudgetEvictions: 67,
		cDeltaApplied:           73,
		cDeltaSyncs:             79,
		cDeltaResyncs:           83,
		cDeltaBaseEvictions:     89,
		cDeltaWireBytes:         9000,
		cDeltaRepresented:       30000,
		cDecodedRequests:        97,
		cSelfCheckFails:         101,
		cMultiRefInlined:        103,
	} {
		m.c[c].Store(v)
	}
	pinServerObservations(m)
}

// pinServerObservations gives the stage histograms and the template
// source fixed values.
func pinServerObservations(m *ServerMetrics) {
	for i, st := range serverStages {
		m.Stages.Observe(st, int64(i+1)*1000, uint64(0xb0+i))
	}
	m.SetTemplateSource(func() replica.Counters { return replica.Counters{Bytes: 4096, HighWater: 16384} })
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

// TestExpositionGolden pins both shapes of the server registry — the
// Prometheus page (every family name, type, help text, label set and
// value) and the JSON snapshot (every key) — against golden files.
func TestExpositionGolden(t *testing.T) {
	m := NewServerMetrics()
	pinServerCounters(m)
	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if _, err := promtext.Validate(bytes.NewReader(prom.Bytes())); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	checkGolden(t, "server.prom", prom.Bytes())
	rec := httptest.NewRecorder()
	m.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	checkGolden(t, "server.json", rec.Body.Bytes())
}
