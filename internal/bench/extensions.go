package bench

import (
	"fmt"
	"net"

	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/fastconv"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// Extension figures go beyond the paper's twelve: they measure the
// future-work systems the paper sketches in §6 with the same
// methodology.

// extD1 measures differential deserialization (the server-side mirror
// of Figures 4–5): Receive Time — bytes in, decoded message out — for a
// full schema-driven parse versus the differential fast path at various
// changed-value percentages, over double arrays from a max-width
// stuffing client.
func extD1(o Options) (*Figure, error) {
	o = o.withDefaults()
	fig := &Figure{
		ID:     "extD1",
		Title:  "Differential Deserialization: Doubles (extension)",
		XLabel: "array size",
		YLabel: "Receive Time",
	}

	schema := &soapdec.Schema{
		Namespace: workload.Namespace,
		Op:        "sendDoubles",
		Params:    []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}
	lookup := func(op string) (*soapdec.Schema, bool) {
		if op == schema.Op {
			return schema, true
		}
		return nil, false
	}

	sFull := Series{Label: "Full Parse"}
	fracs := []int{100, 25}
	sFrac := make([]Series, len(fracs))
	for i, pct := range fracs {
		sFrac[i].Label = fmt.Sprintf("Differential, %d%% Values Changed", pct)
	}
	sSame := Series{Label: "Differential, Identical Resend"}

	for _, n := range o.logSizes() {
		w := workload.NewDoubles(n, workload.FillIntermediate)
		sink := &renderSink{}
		stub := core.NewStub(core.Config{
			Width: core.WidthPolicy{Double: core.MaxWidth},
		}, sink)
		if _, err := stub.Call(w.Msg); err != nil {
			return nil, err
		}
		body := append([]byte(nil), sink.data...)

		// Full parse of the same body every repetition.
		ms, err := timeCalls(o.Reps, func() error {
			_, err := soapdec.Decode(body, lookup, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		sFull.Points = append(sFull.Points, Point{n, ms})

		// Differential with a fraction of values changed per arrival;
		// the client-side mutation and re-serialization happen outside
		// the timer — only the decode is Receive Time.
		for i, pct := range fracs {
			frac := float64(pct) / 100
			d := diffdeser.New(lookup)
			if _, _, err := d.Decode("k", sink.data); err != nil {
				return nil, err
			}
			ms, err := timePrepared(o.Reps,
				func() error {
					w.TouchFraction(frac)
					_, err := stub.Call(w.Msg)
					return err
				},
				func() error {
					_, _, err := d.Decode("k", sink.data)
					return err
				})
			if err != nil {
				return nil, err
			}
			sFrac[i].Points = append(sFrac[i].Points, Point{n, ms})
		}

		// Identical resend: pure byte comparison.
		d := diffdeser.New(lookup)
		if _, _, err := d.Decode("k", sink.data); err != nil {
			return nil, err
		}
		ms, err = timeCalls(o.Reps, func() error {
			_, _, err := d.Decode("k", sink.data)
			return err
		})
		if err != nil {
			return nil, err
		}
		sSame.Points = append(sSame.Points, Point{n, ms})
	}

	fig.Series = append(fig.Series, sFull)
	fig.Series = append(fig.Series, sFrac...)
	fig.Series = append(fig.Series, sSame)
	return fig, nil
}

// extC1 replays Figure 2's comparison (message content matches on
// double arrays) with 2004-era conversion costs emulated: the exact
// big-integer dragon printer replaces the modern shortest-float code in
// every serializer. The paper's original 10× MCM speedup was measured
// when conversions cost this much; with them restored, the narrow modern
// ratios widen back toward the paper's.
func extC1(o Options) (*Figure, error) {
	return mcmFigure(o, "extC1",
		"Message Content Matches: Doubles, 2004-era conversion costs (extension)",
		"double", buildDoubleMsg, false, fastconv.Dragon)
}

// renderSink captures the stub's last serialized message.
type renderSink struct{ data []byte }

// Send implements core.Sink.
func (r *renderSink) Send(bufs net.Buffers) error {
	r.data = r.data[:0]
	for _, b := range bufs {
		r.data = append(r.data, b...)
	}
	return nil
}
