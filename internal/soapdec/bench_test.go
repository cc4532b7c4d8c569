package soapdec

import (
	"math/rand"
	"slices"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// BenchmarkDecode is the microbenchmark twin of the ledger's
// soapdec.decode_ns_per_leaf: from-scratch bodies of the workload shapes
// — the bodies a server decodes without a template — parsed through one
// reused Scratch, with the cost reported per leaf. Values are seeded as
// the benchmark seeds them: doubles of at most 15 significant digits
// below 1000, ints of at most 9 digits. mios is reshape_cold's rotation
// of sixteen array lengths.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fill := func(m *wire.Message) *wire.Message {
		for i := 0; i < m.NumLeaves(); i++ {
			if m.LeafType(i).Kind == wire.Double {
				m.SetLeafDouble(i, float64(rng.Int63n(1e15))/1e12)
			} else {
				m.SetLeafInt(i, rng.Int31n(1e9))
			}
		}
		return m
	}
	var mios []*wire.Message
	for j := 0; j < 16; j++ {
		mios = append(mios, fill(workload.NewMIOs(200+16*j, workload.FillMin).Msg))
	}
	for _, c := range []struct {
		name string
		msgs []*wire.Message
	}{
		{"doubles", []*wire.Message{fill(workload.NewDoubles(1000, workload.FillMin).Msg)}},
		{"ints", []*wire.Message{fill(workload.NewInts(1000, workload.FillMin).Msg)}},
		{"mios", mios},
	} {
		bodies := make([][]byte, len(c.msgs))
		for i, m := range c.msgs {
			bodies[i] = slices.Clone(new(baseline.GSOAPLike).Serialize(m))
		}
		schema := schemaFor(c.msgs[0])
		lookup := func(string) (*Schema, bool) { return schema, true }
		b.Run(c.name, func(b *testing.B) {
			var s Scratch
			leaves := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, err := s.Decode(bodies[i%len(bodies)], lookup)
				if err != nil {
					b.Fatal(err)
				}
				leaves += msg.NumLeaves()
			}
			b.ReportMetric(float64(b.Elapsed())/float64(leaves), "ns/leaf")
		})
	}
}
