//go:build !race

package bsoap_test

import (
	"fmt"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/diffdeser"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

const raceEnabled = false

// TestColdPathAllocs is the cold path's gate, the counterpart of the
// steady-state ones: a first-time send and a full parse allocate what
// their containers cost — the template and its chunks, the message's
// slices, the DUT and range tables, the retained body: one each — and
// nothing per leaf. So the count may grow with the body's chunks and
// arenas, and a sendMIOs of 1 000 elements (3 000 leaves) must stay
// under a fiftieth of an allocation per leaf. The bounds sit close above
// what is measured (26 to parse, 25 and 31 to send) because what they
// guard against is cheap in allocations: a slice left to grow by
// doubling costs only log n of them, and seven such slices is 63
// against 26. It is a no-race test: AllocsPerRun counts the detector's
// own allocations.
func TestColdPathAllocs(t *testing.T) {
	for _, c := range []struct {
		elems int
		want  float64
	}{
		{100, 40},
		{1000, 0.02 * 3000},
	} {
		mios := workload.NewMIOs(c.elems, workload.FillIntermediate)
		sink := &recordSink{}
		cfg := core.Config{
			Chunk: chunk.Config{ChunkSize: 32 * 1024},
			Width: core.WidthPolicy{Int: core.MaxWidth, Double: core.MaxWidth},
		}
		if _, err := core.NewStub(cfg, sink).Call(mios.Msg); err != nil {
			t.Fatal(err)
		}
		body := sink.last()

		t.Run(fmt.Sprintf("decode/%d", c.elems), func(t *testing.T) {
			schema := &soapdec.Schema{Namespace: workload.Namespace, Op: "sendMIOs",
				Params: []soapdec.ParamSpec{{Name: "mios", Type: mios.Msg.Params()[0].Type}}}
			d := diffdeser.New(func(op string) (*soapdec.Schema, bool) { return schema, op == schema.Op })
			// A key per run, made beforehand: every decode is a full
			// parse, and the key's own string is not the decoder's cost.
			keys := make([]string, 102)
			for i := range keys {
				keys[i] = fmt.Sprint("conn", i)
			}
			run := 0
			got := testing.AllocsPerRun(len(keys)-2, func() {
				msg, info, err := d.Decode(keys[run], body)
				run++
				if err != nil || !info.FullParse || msg.NumLeaves() != 3*c.elems {
					t.Fatalf("decode: %v, %+v", err, info)
				}
			})
			t.Logf("full parse of %d leaves: %v allocs", 3*c.elems, got)
			if got > c.want {
				t.Errorf("full parse of %d leaves: %v allocs, want <= %v", 3*c.elems, got, c.want)
			}
		})

		t.Run(fmt.Sprintf("send/%d", c.elems), func(t *testing.T) {
			discard := transport.NewDiscardSink()
			got := testing.AllocsPerRun(100, func() {
				// A new stub has no template: its first call is the
				// First-Time Send. Releasing the store afterwards is what
				// an eviction does, and returns the arenas for the next.
				stub := core.NewStub(cfg, discard)
				ci, err := stub.Call(mios.Msg)
				if err != nil || ci.Match != core.FirstTime {
					t.Fatalf("call: %v, %+v", err, ci)
				}
				stub.Store().ReleaseAll()
			})
			t.Logf("first-time send of %d leaves: %v allocs", 3*c.elems, got)
			if got > c.want {
				t.Errorf("first-time send of %d leaves: %v allocs, want <= %v", 3*c.elems, got, c.want)
			}
		})
	}
}
