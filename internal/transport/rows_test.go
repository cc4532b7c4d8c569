package transport

import (
	"reflect"
	"testing"

	"bsoap/internal/diffdeser"
)

// TestOneRowPerCounter holds serverRows to its contract: every int64
// field of ServerStats is filled by exactly one row, unless it is
// derived or read from the template source (the short list below); the
// full-parse reason rows fill the reasons behind DDSFullParseReasons, a
// map, one each; and no two rows share a family and label.
func TestOneRowPerCounter(t *testing.T) {
	notRows := map[string]bool{
		"DDSFullParses": true, // the sum of the reason rows
		"TemplateBytes": true, "TemplateBytesHighWater": true,
	}
	var s ServerStats
	fields := map[*int64]string{}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == reflect.TypeOf(int64(0)) {
			fields[f.Addr().Interface().(*int64)] = v.Type().Field(i).Name
		}
	}
	for r := diffdeser.ReasonNone + 1; r < diffdeser.NumReasons; r++ {
		fields[&s.reasons[r]] = "reason " + r.String()
		notRows["reason "+r.String()] = false
	}
	filled := map[string]int{}
	series := map[string]counter{}
	for i, r := range serverRows {
		c := counter(i)
		name, ok := fields[r.Field(&s)]
		if !ok {
			t.Errorf("row %d fills something other than an int64 field of ServerStats", i)
		}
		filled[name]++
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
			t.Errorf("ServerStats.%s is on the derived/source list but %d rows fill it", name, n)
		case !notRows[name] && n != 1:
			t.Errorf("ServerStats.%s is filled by %d rows, want exactly 1", name, n)
		}
	}
}
