// Benchmarks regenerating the paper's twelve evaluation figures as
// testing.B targets — one benchmark per figure, sub-benchmarks per
// series and array size. cmd/bsoap-bench produces the full
// paper-shaped sweeps; these targets integrate the same measurements
// with `go test -bench`.
//
//	go test -bench=Fig02 -benchmem
package bsoap_test

import (
	"fmt"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// benchSizes keeps `go test -bench=.` affordable; cmd/bsoap-bench
// sweeps the paper's full 1–100K range.
var benchSizes = []int{100, 1000, 10000}

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }

func cfg32K() core.Config { return core.Config{Chunk: chunk.Config{ChunkSize: 32 * 1024}} }

// benchFullSerialization measures a full-serialization engine.
func benchFullSerialization(b *testing.B, m *wire.Message, disableDiffBSOAP bool, ser baseline.Serializer) {
	sink := transport.NewDiscardSink()
	if ser != nil {
		client := baseline.NewClient(ser, sink)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Call(m); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	c := cfg32K()
	c.DisableDiff = disableDiffBSOAP
	stub := core.NewStub(c, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Call(m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiff measures a differential stub: one untimed first send, then
// per-iteration mutate (untimed would distort; touches are cheap and
// part of the application's work in the paper's model) and send.
func benchDiff(b *testing.B, m *wire.Message, c core.Config, mutate func()) {
	sink := transport.NewDiscardSink()
	stub := core.NewStub(c, sink)
	if _, err := stub.Call(m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mutate != nil {
			mutate()
		}
		if _, err := stub.Call(m); err != nil {
			b.Fatal(err)
		}
	}
}

// mcmBench runs a Figures 1–3 style comparison for one element type.
func mcmBench(b *testing.B, build func(n int) *wire.Message, withXSOAP bool) {
	for _, n := range benchSizes {
		m := build(n)
		if withXSOAP {
			b.Run("series=XSOAP/"+sizeName(n), func(b *testing.B) {
				benchFullSerialization(b, m, false, new(baseline.XSOAPLike))
			})
		}
		b.Run("series=gSOAP/"+sizeName(n), func(b *testing.B) {
			benchFullSerialization(b, m, false, new(baseline.GSOAPLike))
		})
		b.Run("series=bSOAPFull/"+sizeName(n), func(b *testing.B) {
			benchFullSerialization(b, m, true, nil)
		})
		b.Run("series=ContentMatch/"+sizeName(n), func(b *testing.B) {
			benchDiff(b, m, cfg32K(), nil)
		})
	}
}

// BenchmarkFig01MessageContentMatchMIO reproduces Figure 1.
func BenchmarkFig01MessageContentMatchMIO(b *testing.B) {
	mcmBench(b, func(n int) *wire.Message {
		return workload.NewMIOs(n, workload.FillIntermediate).Msg
	}, false)
}

// BenchmarkFig02MessageContentMatchDouble reproduces Figure 2.
func BenchmarkFig02MessageContentMatchDouble(b *testing.B) {
	mcmBench(b, func(n int) *wire.Message {
		return workload.NewDoubles(n, workload.FillIntermediate).Msg
	}, true)
}

// BenchmarkFig03MessageContentMatchInt reproduces Figure 3.
func BenchmarkFig03MessageContentMatchInt(b *testing.B) {
	mcmBench(b, func(n int) *wire.Message {
		return workload.NewInts(n, workload.FillIntermediate).Msg
	}, false)
}

// BenchmarkFig04StructuralMatchMIO reproduces Figure 4: dirty fractions
// of MIO doubles rewritten in place.
func BenchmarkFig04StructuralMatchMIO(b *testing.B) {
	for _, pct := range []int{100, 75, 50, 25} {
		frac := float64(pct) / 100
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("series=reser%d/%s", pct, sizeName(n)), func(b *testing.B) {
				w := workload.NewMIOs(n, workload.FillIntermediate)
				benchDiff(b, w.Msg, cfg32K(), func() { w.TouchDoublesFraction(frac) })
			})
		}
	}
}

// BenchmarkFig05StructuralMatchDouble reproduces Figure 5.
func BenchmarkFig05StructuralMatchDouble(b *testing.B) {
	for _, pct := range []int{100, 75, 50, 25} {
		frac := float64(pct) / 100
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("series=reser%d/%s", pct, sizeName(n)), func(b *testing.B) {
				w := workload.NewDoubles(n, workload.FillIntermediate)
				benchDiff(b, w.Msg, cfg32K(), func() { w.TouchFraction(frac) })
			})
		}
	}
}

// benchWorstShift rebuilds a minimal-width template each iteration
// (excluded from the timer) and measures one grow-everything send.
func benchWorstShift(b *testing.B, chunkSize int, build func(n int) (*wire.Message, func()), n int) {
	sink := transport.NewDiscardSink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stub := core.NewStub(core.Config{Chunk: chunk.Config{ChunkSize: chunkSize}}, sink)
		m, grow := build(n)
		if _, err := stub.Call(m); err != nil {
			b.Fatal(err)
		}
		grow()
		b.StartTimer()
		if _, err := stub.Call(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig06WorstCaseShiftMIO reproduces Figure 6: every MIO grows
// 3→46 characters.
func BenchmarkFig06WorstCaseShiftMIO(b *testing.B) {
	build := func(n int) (*wire.Message, func()) {
		w := workload.NewMIOs(n, workload.FillMin)
		return w.Msg, func() { w.SetAll(workload.MaxInt, workload.MaxInt, workload.MaxDouble) }
	}
	for _, ck := range []int{32 * 1024, 8 * 1024} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("series=shift%dK/%s", ck/1024, sizeName(n)), func(b *testing.B) {
				benchWorstShift(b, ck, build, n)
			})
		}
	}
	for _, n := range benchSizes {
		b.Run("series=noshift/"+sizeName(n), func(b *testing.B) {
			w := workload.NewMIOs(n, workload.FillMax)
			benchDiff(b, w.Msg, cfg32K(), func() { w.TouchDoublesFraction(1) })
		})
	}
}

// BenchmarkFig07WorstCaseShiftDouble reproduces Figure 7: every double
// grows 1→24 characters.
func BenchmarkFig07WorstCaseShiftDouble(b *testing.B) {
	build := func(n int) (*wire.Message, func()) {
		w := workload.NewDoubles(n, workload.FillMin)
		return w.Msg, func() { w.SetAll(workload.MaxDouble) }
	}
	for _, ck := range []int{32 * 1024, 8 * 1024} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("series=shift%dK/%s", ck/1024, sizeName(n)), func(b *testing.B) {
				benchWorstShift(b, ck, build, n)
			})
		}
	}
	for _, n := range benchSizes {
		b.Run("series=noshift/"+sizeName(n), func(b *testing.B) {
			w := workload.NewDoubles(n, workload.FillMax)
			benchDiff(b, w.Msg, cfg32K(), func() { w.TouchFraction(1) })
		})
	}
}

// BenchmarkFig08ShiftPercentMIO reproduces Figure 8: fractions of
// 36-character MIOs grow to 46 characters.
func BenchmarkFig08ShiftPercentMIO(b *testing.B) {
	for _, pct := range []int{100, 75, 50, 25} {
		frac := float64(pct) / 100
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("series=shift%d/%s", pct, sizeName(n)), func(b *testing.B) {
				benchWorstShift(b, 32*1024, func(n int) (*wire.Message, func()) {
					w := workload.NewMIOs(n, workload.FillIntermediate)
					return w.Msg, func() {
						w.GrowFraction(frac, workload.MaxInt, workload.MaxInt, workload.MaxDouble)
					}
				}, n)
			})
		}
	}
}

// BenchmarkFig09ShiftPercentDouble reproduces Figure 9: fractions of
// 18-character doubles grow to 24 characters.
func BenchmarkFig09ShiftPercentDouble(b *testing.B) {
	for _, pct := range []int{100, 75, 50, 25} {
		frac := float64(pct) / 100
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("series=shift%d/%s", pct, sizeName(n)), func(b *testing.B) {
				benchWorstShift(b, 32*1024, func(n int) (*wire.Message, func()) {
					w := workload.NewDoubles(n, workload.FillIntermediate)
					return w.Msg, func() { w.GrowFraction(frac, workload.MaxDouble) }
				}, n)
			})
		}
	}
}

// BenchmarkFig10StuffingMIO reproduces Figure 10: minimal MIOs in
// max/intermediate/min-width fields plus the full closing-tag shift.
func BenchmarkFig10StuffingMIO(b *testing.B) {
	maxPolicy := core.WidthPolicy{Int: core.MaxWidth, Double: core.MaxWidth}
	for _, n := range benchSizes {
		b.Run("series=maxTagShift/"+sizeName(n), func(b *testing.B) {
			benchWorstShift(b, 32*1024, func(n int) (*wire.Message, func()) {
				w := workload.NewMIOs(n, workload.FillMax)
				return w.Msg, func() { w.SetAll(workload.MinInt, workload.MinInt, workload.MinDouble) }
			}, n)
		})
	}
	for _, v := range []struct {
		name   string
		policy core.WidthPolicy
	}{
		{"maxWidth", maxPolicy},
		{"interWidth", core.WidthPolicy{Int: 9, Double: 18}},
		{"minWidth", core.WidthPolicy{}},
	} {
		for _, n := range benchSizes {
			b.Run("series="+v.name+"/"+sizeName(n), func(b *testing.B) {
				w := workload.NewMIOs(n, workload.FillMin)
				c := cfg32K()
				c.Width = v.policy
				benchDiff(b, w.Msg, c, func() { w.TouchDoublesFraction(1) })
			})
		}
	}
}

// BenchmarkFig11StuffingDouble reproduces Figure 11.
func BenchmarkFig11StuffingDouble(b *testing.B) {
	for _, n := range benchSizes {
		b.Run("series=maxTagShift/"+sizeName(n), func(b *testing.B) {
			benchWorstShift(b, 32*1024, func(n int) (*wire.Message, func()) {
				w := workload.NewDoubles(n, workload.FillMax)
				return w.Msg, func() { w.SetAll(workload.MinDouble) }
			}, n)
		})
	}
	for _, v := range []struct {
		name   string
		policy core.WidthPolicy
	}{
		{"maxWidth", core.WidthPolicy{Double: core.MaxWidth}},
		{"interWidth", core.WidthPolicy{Double: 18}},
		{"minWidth", core.WidthPolicy{}},
	} {
		for _, n := range benchSizes {
			b.Run("series="+v.name+"/"+sizeName(n), func(b *testing.B) {
				w := workload.NewDoubles(n, workload.FillMin)
				c := cfg32K()
				c.Width = v.policy
				benchDiff(b, w.Msg, c, func() { w.TouchFraction(1) })
			})
		}
	}
}

// BenchmarkFig12ChunkOverlay reproduces Figure 12: overlaid sends
// versus fully resident 100% value re-serialization.
func BenchmarkFig12ChunkOverlay(b *testing.B) {
	cfg := core.Config{
		Chunk: chunk.Config{ChunkSize: 32 * 1024},
		Width: core.WidthPolicy{Int: core.MaxWidth, Double: core.MaxWidth},
	}
	for _, n := range benchSizes {
		b.Run("series=overlayDouble/"+sizeName(n), func(b *testing.B) {
			sink := transport.NewDiscardSink()
			w := workload.NewDoubles(n, workload.FillMax)
			stub := core.NewStub(cfg, sink)
			if _, err := stub.CallOverlay(w.Msg, sink); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.TouchFraction(1)
				if _, err := stub.CallOverlay(w.Msg, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("series=residentDouble/"+sizeName(n), func(b *testing.B) {
			w := workload.NewDoubles(n, workload.FillMax)
			benchDiff(b, w.Msg, cfg, func() { w.TouchFraction(1) })
		})
		b.Run("series=overlayMIO/"+sizeName(n), func(b *testing.B) {
			sink := transport.NewDiscardSink()
			w := workload.NewMIOs(n, workload.FillMax)
			stub := core.NewStub(cfg, sink)
			if _, err := stub.CallOverlay(w.Msg, sink); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.TouchDoublesFraction(1)
				if _, err := stub.CallOverlay(w.Msg, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("series=residentMIO/"+sizeName(n), func(b *testing.B) {
			w := workload.NewMIOs(n, workload.FillMax)
			benchDiff(b, w.Msg, cfg, func() { w.TouchDoublesFraction(1) })
		})
	}
}
