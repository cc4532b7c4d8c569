package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the program has to agree with.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameMetrics asserts that a run printed exactly the metrics the
// contract names, each with its unit.
func sameMetrics(t *testing.T, got []metric, want []contractMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range got {
		units[m.name] = m.unit
	}
	if len(units) != len(want) {
		t.Errorf("run printed %d metrics, BENCHMARK.json names %d", len(units), len(want))
	}
	for _, w := range want {
		if unit, ok := units[w.Name]; !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, unit, w.Unit)
		}
	}
}

func TestContractNamesEveryWorkload(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
}

// TestWorkloads runs every workload for 300 ms, untraced and traced:
// no call may fail, every metric of the contract must be there, and the
// spans of every call in the trace file must nest.
func TestWorkloads(t *testing.T) {
	c := readContract(t)
	outDir = t.TempDir()
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			timed, err := runTimed(sp, 1, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.correct() || timed.attempted == 0 {
				t.Fatalf("untraced run: %d of %d calls failed, problems %v", timed.failed, timed.attempted, timed.problems)
			}
			sameMetrics(t, timed.metrics, c.EndToEnd)

			layers, err := runTraced(sp, 1, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !layers.correct() {
				t.Fatalf("traced run: %d of %d calls failed, problems %v", layers.failed, layers.attempted, layers.problems)
			}
			sameMetrics(t, layers.metrics, c.PerLayer)
			checkNesting(t, layers.traceFile)
		})
	}
}

// checkNesting reads a trace file back and asserts handle ⊂ server_io ⊂
// client_io ⊂ call for every call id in it.
func checkNesting(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		CallsWritten int `json:"calls_written"`
		Spans        []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	byCall := map[uint64]map[string]span{}
	for _, s := range doc.Spans {
		if byCall[s.Call] == nil {
			byCall[s.Call] = map[string]span{}
		}
		byCall[s.Call][s.Name] = s
	}
	if doc.CallsWritten == 0 || len(byCall) != doc.CallsWritten {
		t.Fatalf("trace file holds %d call ids, says %d", len(byCall), doc.CallsWritten)
	}
	chain := []string{"call", "client_io", "server_io", "handle"}
	for id, spans := range byCall {
		if len(spans) != 5 {
			t.Fatalf("call %d has %d spans, want 5", id, len(spans))
		}
		for i := 1; i < len(chain); i++ {
			outer, inner := spans[chain[i-1]], spans[chain[i]]
			if inner.Parent != outer.Name || inner.StartNs < outer.StartNs || inner.EndNs > outer.EndNs || inner.StartNs > inner.EndNs {
				t.Fatalf("call %d: %s %+v is not inside %s %+v", id, inner.Name, inner, outer.Name, outer)
			}
		}
	}
}

// TestSameSeedSameBytes asserts that on the single-worker serial
// workloads a seed and a call count fix the wire bytes and the match
// classes exactly.
func TestSameSeedSameBytes(t *testing.T) {
	for _, sp := range specs {
		if sp.workers > 1 || sp.depth > 0 {
			continue
		}
		t.Run(sp.name, func(t *testing.T) {
			counts := func() [6]int64 {
				st, err := newStack(sp, 7, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				defer st.close()
				res := st.run(0, 20)
				if res.failed > 0 {
					t.Fatalf("%d calls failed: %v", res.failed, res.firstErr)
				}
				c := res.client
				return [6]int64{c.Calls, c.BytesOnWire, c.FirstTimeSends, c.ContentMatches, c.StructuralMatches, c.PartialMatches}
			}
			if a, b := counts(), counts(); a != b {
				t.Errorf("same seed, same calls: %v then %v", a, b)
			}
		})
	}
}
