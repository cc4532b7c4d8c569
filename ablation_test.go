// Ablation benchmarks for the design choices DESIGN.md calls out:
// stealing versus shifting, trailing-slack sizing, and template-store
// sharing. These go beyond the paper's figures to quantify the
// individual techniques.
package bsoap_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// BenchmarkAblationStealing compares serving sparse field expansions by
// stealing neighbour padding versus shifting the chunk tail. The
// workload stuffs doubles to 18 chars, then grows 1% of them to 24 —
// each growth needs 6 bytes that a neighbour's padding can donate.
func BenchmarkAblationStealing(b *testing.B) {
	for _, enabled := range []bool{true, false} {
		name := "steal=off"
		if enabled {
			name = "steal=on"
		}
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				sink := transport.NewDiscardSink()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					stub := core.NewStub(core.Config{
						Chunk:          chunk.Config{ChunkSize: 32 * 1024},
						Width:          core.WidthPolicy{Double: 18},
						EnableStealing: enabled,
					}, sink)
					w := workload.NewDoubles(n, workload.FillMin)
					if _, err := stub.Call(w.Msg); err != nil {
						b.Fatal(err)
					}
					w.GrowFraction(0.01, workload.MaxDouble)
					b.StartTimer()
					if _, err := stub.Call(w.Msg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationTrailingSlack quantifies the slack reservation: with
// no slack every expansion reallocates or splits; with generous slack
// expansions are pure memmoves.
func BenchmarkAblationTrailingSlack(b *testing.B) {
	for _, slack := range []int{64, 1024, 8 * 1024} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			sink := transport.NewDiscardSink()
			n := 5000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				stub := core.NewStub(core.Config{
					Chunk: chunk.Config{ChunkSize: 32 * 1024, TrailingSlack: slack},
				}, sink)
				w := workload.NewDoubles(n, workload.FillIntermediate)
				if _, err := stub.Call(w.Msg); err != nil {
					b.Fatal(err)
				}
				w.GrowFraction(0.05, workload.MaxDouble)
				b.StartTimer()
				if _, err := stub.Call(w.Msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompression compares the two bandwidth strategies
// the paper's related work contrasts: gzip compression (gSOAP's
// option) re-compresses the whole message every send and trades CPU
// for wire bytes; differential serialization reuses the template and
// pays neither. The custom wirebytes/op metric shows what each puts on
// the wire.
func BenchmarkAblationCompression(b *testing.B) {
	n := 10000
	// Typical fill: every value distinct, so compression ratios are
	// realistic rather than degenerate.
	newWorkload := func() *workload.Doubles { return workload.NewDoubles(n, workload.FillTypical) }

	b.Run("fullSerialization", func(b *testing.B) {
		w := newWorkload()
		ser := new(baseline.GSOAPLike)
		var bytesOut int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bytesOut += int64(len(ser.Serialize(w.Msg)))
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N), "wirebytes/op")
	})

	b.Run("fullSerializationGzip", func(b *testing.B) {
		w := newWorkload()
		ser := new(baseline.GSOAPLike)
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		var bytesOut int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data := ser.Serialize(w.Msg)
			buf.Reset()
			zw.Reset(&buf)
			if _, err := zw.Write(data); err != nil {
				b.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				b.Fatal(err)
			}
			bytesOut += int64(buf.Len())
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N), "wirebytes/op")
	})

	b.Run("differentialContentMatch", func(b *testing.B) {
		w := newWorkload()
		sink := transport.NewDiscardSink()
		stub := core.NewStub(core.Config{}, sink)
		if _, err := stub.Call(w.Msg); err != nil {
			b.Fatal(err)
		}
		var bytesOut int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ci, err := stub.Call(w.Msg)
			if err != nil {
				b.Fatal(err)
			}
			bytesOut += int64(ci.Bytes)
		}
		b.ReportMetric(float64(bytesOut)/float64(b.N), "wirebytes/op")
	})
}

// BenchmarkAblationDirtyScan measures the engine's fixed per-call cost
// of scanning the DUT table for dirty bits when almost nothing changed —
// the overhead a content-match-heavy application pays per send.
func BenchmarkAblationDirtyScan(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sink := transport.NewDiscardSink()
			w := workload.NewDoubles(n, workload.FillIntermediate)
			stub := core.NewStub(core.Config{}, sink)
			if _, err := stub.Call(w.Msg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stub.Call(w.Msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
