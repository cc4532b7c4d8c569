package bench

import (
	"fmt"

	"bsoap/internal/baseline"
	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/fastconv"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// Series labels, matching the paper's legends.
const (
	lblGSOAP     = "gSOAP"
	lblXSOAP     = "XSOAP"
	lblFull      = "bSOAP Full Serialization"
	lblMCM       = "bSOAP Message Content Match"
	lblMCMShort  = "Message Content Match"
	lblNoShift   = "100% Value Re-serialization, No Shifting"
	lblShift32K  = "Worst Case (100%) Shifting with 32K Chunks"
	lblShift8K   = "Worst Case (100%) Shifting with 8K Chunks"
	lblMaxTag    = "Max Field Width: Full Closing Tag Shift"
	lblMaxNoTag  = "Max Field Width: No Closing Tag Shift"
	lblInterWide = "Intermediate Field Width: No Closing Tag Shift"
	lblMinWide   = "Min Field Width: No Closing Tag Shift"
)

func reserLabel(pct int) string {
	return fmt.Sprintf("%d%% Value Re-serialization", pct)
}

func reserShiftLabel(pct int) string {
	return fmt.Sprintf("%d%% Value Re-serialization with Shifting", pct)
}

// chunk32K is the default template chunk configuration (the paper's
// SO_SNDBUF-matching 32 KiB).
func chunk32K() chunk.Config { return chunk.Config{ChunkSize: 32 * 1024} }

func chunk8K() chunk.Config { return chunk.Config{ChunkSize: 8 * 1024} }

// ---------------------------------------------------------------------
// Figures 1–3: Message Content Matches.
// ---------------------------------------------------------------------

// mcmBuilder abstracts the element type swept by Figures 1–3.
type mcmBuilder func(n int) *wire.Message

func buildMIOMsg(n int) *wire.Message { return workload.NewMIOs(n, workload.FillIntermediate).Msg }
func buildDoubleMsg(n int) *wire.Message {
	return workload.NewDoubles(n, workload.FillIntermediate).Msg
}
func buildIntMsg(n int) *wire.Message { return workload.NewInts(n, workload.FillIntermediate).Msg }

// mcmFigure measures gSOAP (and optionally XSOAP) full serialization,
// bSOAP with differential serialization off, and bSOAP message content
// matches for resends of an unchanged message, every serializer printing
// doubles through conv.
func mcmFigure(o Options, id, title, elem string, build mcmBuilder, withXSOAP bool, conv fastconv.Converter) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "array size",
		YLabel: "Send Time",
	}
	var sXSOAP, sGSOAP, sFull, sMCM Series
	sXSOAP.Label, sGSOAP.Label, sFull.Label, sMCM.Label = lblXSOAP, lblGSOAP, lblFull, lblMCM

	for _, n := range o.logSizes() {
		m := build(n)

		if withXSOAP {
			cl := baseline.NewClient(&baseline.XSOAPLike{Conv: conv}, o.Sink)
			ms, err := timeCalls(o.Reps, func() error { _, err := cl.Call(m); return err })
			if err != nil {
				return nil, err
			}
			sXSOAP.Points = append(sXSOAP.Points, Point{n, ms})
		}

		cl := baseline.NewClient(&baseline.GSOAPLike{Conv: conv}, o.Sink)
		ms, err := timeCalls(o.Reps, func() error { _, err := cl.Call(m); return err })
		if err != nil {
			return nil, err
		}
		sGSOAP.Points = append(sGSOAP.Points, Point{n, ms})

		full := core.NewStubWithConverter(core.Config{Chunk: chunk32K(), DisableDiff: true}, o.Sink, conv)
		ms, err = timeCalls(o.Reps, func() error { _, err := full.Call(m); return err })
		if err != nil {
			return nil, err
		}
		sFull.Points = append(sFull.Points, Point{n, ms})

		diff := core.NewStubWithConverter(core.Config{Chunk: chunk32K()}, o.Sink, conv)
		if _, err := diff.Call(m); err != nil { // first-time send, untimed
			return nil, err
		}
		ms, err = timeCalls(o.Reps, func() error { _, err := diff.Call(m); return err })
		if err != nil {
			return nil, err
		}
		sMCM.Points = append(sMCM.Points, Point{n, ms})
		if st := diff.Stats(); st.ContentMatches != int64(o.Reps) {
			return nil, fmt.Errorf("bench %s: expected %d content matches for %s size %d, got %+v",
				id, o.Reps, elem, n, st)
		}
	}
	if withXSOAP {
		fig.Series = append(fig.Series, sXSOAP)
	}
	fig.Series = append(fig.Series, sGSOAP, sFull, sMCM)
	return fig, nil
}

// fig01 reproduces Figure 1: message content matches, MIO arrays.
func fig01(o Options) (*Figure, error) {
	return mcmFigure(o, "fig01", "Message Content Matches: MIO's", "MIO", buildMIOMsg, false, 0)
}

// fig02 reproduces Figure 2: message content matches, double arrays,
// with the XSOAP baseline added.
func fig02(o Options) (*Figure, error) {
	return mcmFigure(o, "fig02", "Message Content Matches: Doubles", "double", buildDoubleMsg, true, 0)
}

// fig03 reproduces Figure 3: message content matches, integer arrays.
func fig03(o Options) (*Figure, error) {
	return mcmFigure(o, "fig03", "Message Content Matches: Integers", "int", buildIntMsg, false, 0)
}

// ---------------------------------------------------------------------
// Figures 4–5: Perfect Structural Matches.
// ---------------------------------------------------------------------

// psmFigure measures full serialization, re-serialization of 100/75/
// 50/25% of values (width-neutral updates, no shifting), and content
// matches, over a linear size sweep.
func psmFigure(o Options, id, title string, newMsg func(n int) (*wire.Message, func(frac float64))) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{ID: id, Title: title, XLabel: "array size", YLabel: "Send Time"}

	sFull := Series{Label: lblFull}
	fracs := []int{100, 75, 50, 25}
	sFrac := make([]Series, len(fracs))
	for i, pct := range fracs {
		sFrac[i].Label = reserLabel(pct)
	}
	sMCM := Series{Label: lblMCMShort}

	for _, n := range o.linearSizes() {
		m, touch := newMsg(n)

		full := core.NewStub(core.Config{Chunk: chunk32K(), DisableDiff: true}, o.Sink)
		ms, err := timeCalls(o.Reps, func() error { _, err := full.Call(m); return err })
		if err != nil {
			return nil, err
		}
		sFull.Points = append(sFull.Points, Point{n, ms})

		for i, pct := range fracs {
			frac := float64(pct) / 100
			stub := core.NewStub(core.Config{Chunk: chunk32K()}, o.Sink)
			if _, err := stub.Call(m); err != nil {
				return nil, err
			}
			ms, err := timeCalls(o.Reps, func() error {
				touch(frac)
				_, err := stub.Call(m)
				return err
			})
			if err != nil {
				return nil, err
			}
			if st := stub.Stats(); st.Shifts != 0 {
				return nil, fmt.Errorf("bench %s: PSM series shifted (%+v)", id, st)
			}
			sFrac[i].Points = append(sFrac[i].Points, Point{n, ms})
		}

		stub := core.NewStub(core.Config{Chunk: chunk32K()}, o.Sink)
		if _, err := stub.Call(m); err != nil {
			return nil, err
		}
		ms, err = timeCalls(o.Reps, func() error { _, err := stub.Call(m); return err })
		if err != nil {
			return nil, err
		}
		sMCM.Points = append(sMCM.Points, Point{n, ms})
	}
	fig.Series = append(fig.Series, sFull)
	fig.Series = append(fig.Series, sFrac...)
	fig.Series = append(fig.Series, sMCM)
	return fig, nil
}

// fig04 reproduces Figure 4: perfect structural matches on MIO arrays —
// only the MIO doubles are re-serialized, the integers stay unchanged.
func fig04(o Options) (*Figure, error) {
	return psmFigure(o, "fig04", "Perfect Structural Matches: MIO's", func(n int) (*wire.Message, func(float64)) {
		w := workload.NewMIOs(n, workload.FillIntermediate)
		return w.Msg, w.TouchDoublesFraction
	})
}

// fig05 reproduces Figure 5: perfect structural matches on double
// arrays.
func fig05(o Options) (*Figure, error) {
	return psmFigure(o, "fig05", "Perfect Structural Matches: Doubles", func(n int) (*wire.Message, func(float64)) {
		w := workload.NewDoubles(n, workload.FillIntermediate)
		return w.Msg, w.TouchFraction
	})
}

// ---------------------------------------------------------------------
// Figures 6–7: worst-case shifting.
// ---------------------------------------------------------------------

// worstShiftFigure measures expanding every value from its minimal to
// its maximal width (forcing a shift per value) at 32K and 8K chunk
// sizes, against the no-shift 100% re-serialization baseline.
func worstShiftFigure(o Options, id, title string,
	prepareMin func(n int) (*wire.Message, func()), // message at min widths + grow-all
	newMaxTouch func(n int) (*wire.Message, func()), // message at max widths + width-neutral touch-all
) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{ID: id, Title: title, XLabel: "array size", YLabel: "Send Time"}

	for _, variant := range []struct {
		label string
		cfg   chunk.Config
	}{{lblShift32K, chunk32K()}, {lblShift8K, chunk8K()}} {
		s := Series{Label: variant.label}
		for _, n := range o.logSizes() {
			var stub *core.Stub
			var grow func()
			var m *wire.Message
			ms, err := timePrepared(o.Reps,
				func() error {
					// Fresh template at minimal widths each repetition.
					stub = core.NewStub(core.Config{Chunk: variant.cfg}, o.Sink)
					m, grow = prepareMin(n)
					_, err := stub.Call(m)
					return err
				},
				func() error {
					grow()
					_, err := stub.Call(m)
					return err
				})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{n, ms})
		}
		fig.Series = append(fig.Series, s)
	}

	s := Series{Label: lblNoShift}
	for _, n := range o.logSizes() {
		m, touch := newMaxTouch(n)
		stub := core.NewStub(core.Config{Chunk: chunk32K()}, o.Sink)
		if _, err := stub.Call(m); err != nil {
			return nil, err
		}
		ms, err := timeCalls(o.Reps, func() error {
			touch()
			_, err := stub.Call(m)
			return err
		})
		if err != nil {
			return nil, err
		}
		if st := stub.Stats(); st.Shifts != 0 {
			return nil, fmt.Errorf("bench %s: no-shift baseline shifted (%+v)", id, st)
		}
		s.Points = append(s.Points, Point{n, ms})
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// fig06 reproduces Figure 6: worst-case shifting on MIO arrays — every
// MIO expands from 3 to 46 characters.
func fig06(o Options) (*Figure, error) {
	return worstShiftFigure(o, "fig06", "Worst Case Shifting: MIO's",
		func(n int) (*wire.Message, func()) {
			w := workload.NewMIOs(n, workload.FillMin)
			return w.Msg, func() { w.SetAll(workload.MaxInt, workload.MaxInt, workload.MaxDouble) }
		},
		func(n int) (*wire.Message, func()) {
			w := workload.NewMIOs(n, workload.FillMax)
			return w.Msg, func() { w.TouchDoublesFraction(1); touchMIOIntsMax(w) }
		})
}

// touchMIOIntsMax flips every max-width int field width-neutrally.
func touchMIOIntsMax(w *workload.MIOs) {
	for i := 0; i < w.Arr.Len(); i++ {
		for f := 0; f < 2; f++ {
			v := w.Arr.Int(i, f)
			if v == workload.MaxInt {
				w.Arr.SetInt(i, f, workload.MaxInt+1) // still 11 chars
			} else {
				w.Arr.SetInt(i, f, workload.MaxInt)
			}
		}
	}
}

// fig07 reproduces Figure 7: worst-case shifting on double arrays —
// every double expands from 1 to 24 characters.
func fig07(o Options) (*Figure, error) {
	return worstShiftFigure(o, "fig07", "Worst Case Shifting: Doubles",
		func(n int) (*wire.Message, func()) {
			w := workload.NewDoubles(n, workload.FillMin)
			return w.Msg, func() { w.SetAll(workload.MaxDouble) }
		},
		func(n int) (*wire.Message, func()) {
			w := workload.NewDoubles(n, workload.FillMax)
			return w.Msg, func() { w.TouchFraction(1) }
		})
}

// ---------------------------------------------------------------------
// Figures 8–9: shifting at partial re-serialization percentages.
// ---------------------------------------------------------------------

// shiftPercentFigure expands a fraction of intermediate-width values to
// maximal width per send (fresh template per repetition), against the
// no-shift baseline.
func shiftPercentFigure(o Options, id, title string,
	prepareInter func(n int) (*wire.Message, func(frac float64)),
	newInterTouch func(n int) (*wire.Message, func()),
) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{ID: id, Title: title, XLabel: "array size", YLabel: "Send Time"}

	for _, pct := range []int{100, 75, 50, 25} {
		frac := float64(pct) / 100
		s := Series{Label: reserShiftLabel(pct)}
		for _, n := range o.logSizes() {
			var stub *core.Stub
			var m *wire.Message
			var grow func(float64)
			ms, err := timePrepared(o.Reps,
				func() error {
					stub = core.NewStub(core.Config{Chunk: chunk32K()}, o.Sink)
					m, grow = prepareInter(n)
					_, err := stub.Call(m)
					return err
				},
				func() error {
					grow(frac)
					_, err := stub.Call(m)
					return err
				})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{n, ms})
		}
		fig.Series = append(fig.Series, s)
	}

	s := Series{Label: lblNoShift}
	for _, n := range o.logSizes() {
		m, touch := newInterTouch(n)
		stub := core.NewStub(core.Config{Chunk: chunk32K()}, o.Sink)
		if _, err := stub.Call(m); err != nil {
			return nil, err
		}
		ms, err := timeCalls(o.Reps, func() error {
			touch()
			_, err := stub.Call(m)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{n, ms})
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// fig08 reproduces Figure 8: percentages of an array of 36-character
// MIOs expand to maximal 46-character MIOs.
func fig08(o Options) (*Figure, error) {
	return shiftPercentFigure(o, "fig08", "Shifting Performance: MIO's",
		func(n int) (*wire.Message, func(float64)) {
			w := workload.NewMIOs(n, workload.FillIntermediate)
			return w.Msg, func(frac float64) {
				w.GrowFraction(frac, workload.MaxInt, workload.MaxInt, workload.MaxDouble)
			}
		},
		func(n int) (*wire.Message, func()) {
			w := workload.NewMIOs(n, workload.FillIntermediate)
			return w.Msg, func() { w.TouchDoublesFraction(1) }
		})
}

// fig09 reproduces Figure 9: percentages of an array of 18-character
// doubles expand to maximal 24-character doubles.
func fig09(o Options) (*Figure, error) {
	return shiftPercentFigure(o, "fig09", "Shifting Performance: Doubles",
		func(n int) (*wire.Message, func(float64)) {
			w := workload.NewDoubles(n, workload.FillIntermediate)
			return w.Msg, func(frac float64) { w.GrowFraction(frac, workload.MaxDouble) }
		},
		func(n int) (*wire.Message, func()) {
			w := workload.NewDoubles(n, workload.FillIntermediate)
			return w.Msg, func() { w.TouchFraction(1) }
		})
}

// ---------------------------------------------------------------------
// Figures 10–11: stuffing.
// ---------------------------------------------------------------------

// stuffingFigure measures minimal values written into fields stuffed to
// max, intermediate and exact widths, plus the worst case: minimal
// values written over maximal ones in max-width fields, forcing the
// longest possible closing-tag shift.
func stuffingFigure(o Options, id, title string,
	maxPolicy, interPolicy core.WidthPolicy,
	newMin func(n int) (*wire.Message, func()), // min-value message + width-neutral touch-all
	newMax func(n int) (*wire.Message, func()), // max-value message + shrink-all-to-min
) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{ID: id, Title: title, XLabel: "array size", YLabel: "Send Time"}

	// Worst case: full closing-tag shift on every value.
	s := Series{Label: lblMaxTag}
	for _, n := range o.logSizes() {
		var stub *core.Stub
		var m *wire.Message
		var shrink func()
		ms, err := timePrepared(o.Reps,
			func() error {
				stub = core.NewStub(core.Config{Chunk: chunk32K(), Width: maxPolicy}, o.Sink)
				m, shrink = newMax(n)
				_, err := stub.Call(m)
				return err
			},
			func() error {
				shrink()
				_, err := stub.Call(m)
				return err
			})
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{n, ms})
	}
	fig.Series = append(fig.Series, s)

	for _, variant := range []struct {
		label  string
		policy core.WidthPolicy
	}{
		{lblMaxNoTag, maxPolicy},
		{lblInterWide, interPolicy},
		{lblMinWide, core.WidthPolicy{}},
	} {
		s := Series{Label: variant.label}
		for _, n := range o.logSizes() {
			m, touch := newMin(n)
			stub := core.NewStub(core.Config{Chunk: chunk32K(), Width: variant.policy}, o.Sink)
			if _, err := stub.Call(m); err != nil {
				return nil, err
			}
			ms, err := timeCalls(o.Reps, func() error {
				touch()
				_, err := stub.Call(m)
				return err
			})
			if err != nil {
				return nil, err
			}
			if st := stub.Stats(); st.TagShifts != 0 || st.Shifts != 0 {
				return nil, fmt.Errorf("bench %s (%s): unexpected tag shifts (%+v)", id, variant.label, st)
			}
			s.Points = append(s.Points, Point{n, ms})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// fig10 reproduces Figure 10: stuffing MIOs to 46 (max), 36
// (intermediate) and 3 (min) characters, plus the full closing-tag
// shift of writing 3-character MIOs over 46-character ones.
func fig10(o Options) (*Figure, error) {
	return stuffingFigure(o, "fig10", "Stuffing Performance: MIO's",
		core.WidthPolicy{Int: core.MaxWidth, Double: core.MaxWidth},
		core.WidthPolicy{Int: 9, Double: 18},
		func(n int) (*wire.Message, func()) {
			w := workload.NewMIOs(n, workload.FillMin)
			return w.Msg, func() { w.TouchDoublesFraction(1); touchMIOIntsMin(w) }
		},
		func(n int) (*wire.Message, func()) {
			w := workload.NewMIOs(n, workload.FillMax)
			return w.Msg, func() { w.SetAll(workload.MinInt, workload.MinInt, workload.MinDouble) }
		})
}

// touchMIOIntsMin flips every 1-character int field width-neutrally.
func touchMIOIntsMin(w *workload.MIOs) {
	for i := 0; i < w.Arr.Len(); i++ {
		for f := 0; f < 2; f++ {
			if w.Arr.Int(i, f) == workload.MinInt {
				w.Arr.SetInt(i, f, workload.MinInt+1)
			} else {
				w.Arr.SetInt(i, f, workload.MinInt)
			}
		}
	}
}

// fig11 reproduces Figure 11: stuffing one-character doubles to 24
// (max), 18 (intermediate) and 1 (min) characters, plus the full
// closing-tag shift of writing 1-character doubles over 24-character
// ones.
func fig11(o Options) (*Figure, error) {
	return stuffingFigure(o, "fig11", "Stuffing Performance: Doubles",
		core.WidthPolicy{Double: core.MaxWidth},
		core.WidthPolicy{Double: 18},
		func(n int) (*wire.Message, func()) {
			w := workload.NewDoubles(n, workload.FillMin)
			return w.Msg, func() { w.TouchFraction(1) }
		},
		func(n int) (*wire.Message, func()) {
			w := workload.NewDoubles(n, workload.FillMax)
			return w.Msg, func() { w.SetAll(workload.MinDouble) }
		})
}

// ---------------------------------------------------------------------
// Figure 12: chunk overlaying.
// ---------------------------------------------------------------------

// fig12 reproduces Figure 12: sending large arrays from a single
// overlaid 32K chunk versus re-serializing 100% of values in a fully
// resident template.
func fig12(o Options) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{ID: "fig12", Title: "Chunk Overlaying Performance",
		XLabel: "array size", YLabel: "Send Time"}

	cfg := core.Config{Chunk: chunk32K(), Width: core.WidthPolicy{Int: core.MaxWidth, Double: core.MaxWidth}}

	// Doubles.
	ovD := Series{Label: "Chunk Overlay for Double Array"}
	fuD := Series{Label: "100% Value Serialization for Double Array"}
	for _, n := range o.linearSizes() {
		w := workload.NewDoubles(n, workload.FillMax)
		stub := core.NewStub(cfg, o.Sink)
		if _, err := stub.CallOverlay(w.Msg, o.StreamSink); err != nil {
			return nil, err
		}
		ms, err := timeCalls(o.Reps, func() error {
			w.TouchFraction(1)
			_, err := stub.CallOverlay(w.Msg, o.StreamSink)
			return err
		})
		if err != nil {
			return nil, err
		}
		ovD.Points = append(ovD.Points, Point{n, ms})

		w2 := workload.NewDoubles(n, workload.FillMax)
		stub2 := core.NewStub(cfg, o.Sink)
		if _, err := stub2.Call(w2.Msg); err != nil {
			return nil, err
		}
		ms, err = timeCalls(o.Reps, func() error {
			w2.TouchFraction(1)
			_, err := stub2.Call(w2.Msg)
			return err
		})
		if err != nil {
			return nil, err
		}
		fuD.Points = append(fuD.Points, Point{n, ms})
	}

	// MIOs.
	ovM := Series{Label: "Chunk Overlay for MIO Array"}
	fuM := Series{Label: "100% Value Serialization for MIO Array"}
	for _, n := range o.linearSizes() {
		w := workload.NewMIOs(n, workload.FillMax)
		stub := core.NewStub(cfg, o.Sink)
		if _, err := stub.CallOverlay(w.Msg, o.StreamSink); err != nil {
			return nil, err
		}
		ms, err := timeCalls(o.Reps, func() error {
			w.TouchDoublesFraction(1)
			touchMIOIntsMax(w)
			_, err := stub.CallOverlay(w.Msg, o.StreamSink)
			return err
		})
		if err != nil {
			return nil, err
		}
		ovM.Points = append(ovM.Points, Point{n, ms})

		w2 := workload.NewMIOs(n, workload.FillMax)
		stub2 := core.NewStub(cfg, o.Sink)
		if _, err := stub2.Call(w2.Msg); err != nil {
			return nil, err
		}
		ms, err = timeCalls(o.Reps, func() error {
			w2.TouchDoublesFraction(1)
			touchMIOIntsMax(w2)
			_, err := stub2.Call(w2.Msg)
			return err
		})
		if err != nil {
			return nil, err
		}
		fuM.Points = append(fuM.Points, Point{n, ms})
	}

	fig.Series = append(fig.Series, ovD, fuD, ovM, fuM)
	return fig, nil
}
