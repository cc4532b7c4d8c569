package core

import (
	"math"
	"math/rand"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/wire"
)

// TestGoldenEquivalence is the load-bearing property of the whole
// system: for random message schemas and random mutate/send sequences,
// under every width policy and chunk configuration, with stealing on and
// off, the bytes produced by the differential path must always parse to
// exactly the message's current values.
func TestGoldenEquivalence(t *testing.T) {
	configs := []Config{
		{},
		{Width: WidthPolicy{Double: MaxWidth, Int: MaxWidth}},
		{Width: WidthPolicy{Double: 18, Int: 6}},
		{EnableStealing: true},
		{Width: WidthPolicy{Double: 10}, EnableStealing: true},
		{Chunk: chunk.Config{ChunkSize: 256, TrailingSlack: 32}},
		{Chunk: chunk.Config{ChunkSize: 100, TrailingSlack: 16}, EnableStealing: true},
	}
	for ci, cfg := range configs {
		cfg := cfg
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		for trial := 0; trial < 6; trial++ {
			m, mutators := randomMessage(rng)
			sink := &captureSink{}
			s := NewStub(cfg, sink)
			for send := 0; send < 12; send++ {
				// Random batch of mutations (possibly none).
				for k := rng.Intn(8); k > 0; k-- {
					mutators[rng.Intn(len(mutators))](rng)
				}
				if _, err := s.Call(m); err != nil {
					t.Fatalf("config %d trial %d send %d: %v", ci, trial, send, err)
				}
				checkRendered(t, m, sink.data)
				checkTemplate(t, s, m)
			}
		}
	}
}

// randomMessage builds a message with a random mix of parameters and
// returns mutator closures that change random values through the Set
// accessors.
func randomMessage(rng *rand.Rand) (*wire.Message, []func(*rand.Rand)) {
	m := wire.NewMessage("urn:prop", "op")
	var muts []func(*rand.Rand)

	nParams := rng.Intn(4) + 1
	for p := 0; p < nParams; p++ {
		switch rng.Intn(5) {
		case 0:
			r := m.AddInt("i", int32(rng.Intn(100)))
			muts = append(muts, func(rng *rand.Rand) { r.Set(randInt(rng)) })
		case 1:
			r := m.AddDouble("d", randDouble(rng))
			muts = append(muts, func(rng *rand.Rand) { r.Set(randDouble(rng)) })
		case 2:
			n := rng.Intn(40) + 1
			r := m.AddDoubleArray("da", n)
			for i := 0; i < n; i++ {
				r.Set(i, randDouble(rng))
			}
			muts = append(muts, func(rng *rand.Rand) { r.Set(rng.Intn(n), randDouble(rng)) })
		case 3:
			n := rng.Intn(40) + 1
			r := m.AddIntArray("ia", n)
			muts = append(muts, func(rng *rand.Rand) { r.Set(rng.Intn(n), randInt(rng)) })
		case 4:
			mio := wire.StructOf("ns1:MIO",
				wire.Field{Name: "x", Type: wire.TInt},
				wire.Field{Name: "y", Type: wire.TInt},
				wire.Field{Name: "value", Type: wire.TDouble},
			)
			n := rng.Intn(20) + 1
			r := m.AddStructArray("ma", mio, n)
			muts = append(muts, func(rng *rand.Rand) {
				i := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					r.SetInt(i, 0, randInt(rng))
				case 1:
					r.SetInt(i, 1, randInt(rng))
				default:
					r.SetDouble(i, 2, randDouble(rng))
				}
			})
		}
	}
	m.ClearDirty()
	return m, muts
}

// randInt favours extreme widths so shifting and tag shifts both occur.
func randInt(rng *rand.Rand) int32 {
	switch rng.Intn(4) {
	case 0:
		return int32(rng.Intn(10)) // 1 char
	case 1:
		return math.MinInt32 // 11 chars
	case 2:
		return int32(rng.Uint32())
	default:
		return int32(rng.Intn(100000) - 50000)
	}
}

// randDouble mixes 1-char, mid-size and maximal 24-char encodings, plus
// the XSD special values.
func randDouble(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(10)) // 1 char
	case 1:
		return -math.MaxFloat64 // 24 chars
	case 2:
		return math.Inf(1)
	case 3:
		return rng.NormFloat64() * 1e5
	case 4:
		return rng.Float64()
	default:
		return math.Float64frombits(rng.Uint64()) // anything, incl. NaN
	}
}
