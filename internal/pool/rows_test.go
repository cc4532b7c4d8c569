package pool

import (
	"reflect"
	"testing"
)

// TestOneRowPerCounter holds clientRows to its contract: every int64
// field of Stats is filled by exactly one row, unless it is derived or
// read from a source (the short list below); every row fills a field
// or is exposed (cResolved only feeds futures_pending); and no two rows
// share a family and label.
func TestOneRowPerCounter(t *testing.T) {
	notRows := map[string]bool{
		// Derived in snapshot.
		"Errors": true, "BytesSaved": true, "DeltaBytesSaved": true, "FuturesPending": true,
		// Read from the template and fault sources.
		"TemplateRefusals": true, "TemplateBytes": true, "TemplateBytesHighWater": true, "FaultsInjected": true,
		// Always 0.
		"TemplateStaleRebinds": true,
		// The latency histogram.
		"LatencyCount": true, "LatencySumNs": true,
	}
	var s Stats
	fields := map[*int64]string{}
	int64Fields(reflect.ValueOf(&s).Elem(), "", fields)
	filled := map[string]int{}
	series := map[string]counter{}
	for i, r := range clientRows {
		c := counter(i)
		if r.Field == nil && r.Family == "" && c != cResolved {
			t.Errorf("row %d fills no field and has no family", i)
		}
		if r.Field != nil {
			name, ok := fields[r.Field(&s)]
			if !ok {
				t.Errorf("row %d fills something other than an int64 field of Stats", i)
			}
			filled[name]++
		}
		if r.Family == "" {
			continue
		}
		key := r.Family + "{" + r.Label + "}"
		if prev, dup := series[key]; dup {
			t.Errorf("rows %d and %d both write %s", prev, i, key)
		}
		series[key] = c
	}
	for _, name := range fields {
		switch n := filled[name]; {
		case notRows[name] && n != 0:
			t.Errorf("Stats.%s is on the derived/source list but %d rows fill it", name, n)
		case !notRows[name] && n != 1:
			t.Errorf("Stats.%s is filled by %d rows, want exactly 1", name, n)
		}
	}
}

// int64Fields maps the address of every int64 field under v (nested
// structs included) to its dotted name.
func int64Fields(v reflect.Value, prefix string, out map[*int64]string) {
	for i := 0; i < v.NumField(); i++ {
		f, ft := v.Field(i), v.Type().Field(i)
		switch {
		case ft.Type == reflect.TypeOf(int64(0)):
			out[f.Addr().Interface().(*int64)] = prefix + ft.Name
		case f.Kind() == reflect.Struct:
			int64Fields(f, prefix+ft.Name+".", out)
		}
	}
}
