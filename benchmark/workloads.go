package main

import (
	"math/rand"

	"bsoap/internal/core"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// spec is one benchmark workload: the shape of the traffic one closed
// loop sends, the knobs of the client and server it is sent through,
// and the regime the workload is meant to sit in.
type spec struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json and the
	// README carry the same sentence.
	why string

	// workers is both the closed-loop worker count and the pool's
	// connection count; never above 2 (the box has two cores).
	workers int
	// depth is pool.Options.PipelineDepth and the server's ReadAhead;
	// zero is the serial request/response path.
	depth int
	// delta negotiates patch frames on both sides.
	delta bool
	// linkBps throttles the client's connections to one shared link of
	// this many bytes per second (faultwire.Bandwidth); zero is plain
	// loopback.
	linkBps int64
	width   core.WidthPolicy

	// build returns one worker's messages, filled from rng.
	build func(rng *rand.Rand) []*wire.Message
	// mutate is the step a worker takes on a message before every call.
	mutate func(rng *rand.Rand, m *wire.Message)

	// regime lists the per-layer shares that show the workload still
	// measures what its sentence says, each with the band it belongs in.
	regime []band
}

// band is the closed interval a regime share is expected in.
type band struct {
	metric string
	lo, hi float64
}

// stuffed is the intermediate stuffing every workload but rewrite_bulk
// uses: 18-character doubles and 9-character ints, the widths the
// seeded values below are generated to fit, so a rewrite never shifts.
var stuffed = core.WidthPolicy{Double: 18, Int: 9}

// fitDouble returns a double of at most 15 significant digits below
// 1000: its shortest lexical form fits an 18-character field.
func fitDouble(rng *rand.Rand) float64 { return float64(rng.Int63n(1e15)) / 1e12 }

// fullDouble returns a double that needs all 17 significant digits.
func fullDouble(rng *rand.Rand) float64 { return (rng.Float64()*2 - 1) * 1e6 }

// fitInt returns an int of at most 9 digits.
func fitInt(rng *rand.Rand) int32 { return rng.Int31n(1e9) }

// setLeaf stores a fresh seeded value into leaf i.
func setLeaf(rng *rand.Rand, m *wire.Message, i int, double func(*rand.Rand) float64) {
	if m.LeafType(i).Kind == wire.Double {
		m.SetLeafDouble(i, double(rng))
	} else {
		m.SetLeafInt(i, fitInt(rng))
	}
}

// fill gives every leaf of m a seeded value.
func fill(rng *rand.Rand, m *wire.Message, double func(*rand.Rand) float64) *wire.Message {
	for i := 0; i < m.NumLeaves(); i++ {
		setLeaf(rng, m, i, double)
	}
	return m
}

// touch rewrites k leaves of m at seeded positions.
func touch(rng *rand.Rand, m *wire.Message, k int) {
	for ; k > 0; k-- {
		setLeaf(rng, m, rng.Intn(m.NumLeaves()), fitDouble)
	}
}

// sparse leaves a quarter of the calls untouched and rewrites ten
// leaves on the rest.
func sparse(rng *rand.Rand, m *wire.Message) {
	if rng.Intn(4) != 0 {
		touch(rng, m, 10)
	}
}

// threeOps builds one message per workload operation with nd doubles,
// ni ints and nm MIOs.
func threeOps(nd, ni, nm int) func(*rand.Rand) []*wire.Message {
	return func(rng *rand.Rand) []*wire.Message {
		return []*wire.Message{
			fill(rng, workload.NewDoubles(nd, workload.FillMin).Msg, fitDouble),
			fill(rng, workload.NewInts(ni, workload.FillMin).Msg, fitDouble),
			fill(rng, workload.NewMIOs(nm, workload.FillMin).Msg, fitDouble),
		}
	}
}

func atLeast(metric string, lo float64) band { return band{metric, lo, 1} }
func exactly(metric string, v float64) band  { return band{metric, v, v} }

var specs = []*spec{
	{
		name:    "small_serial",
		why:     "8-leaf messages, one leaf changed per call: per-call fixed cost is all there is, serialization does almost nothing",
		workers: 1,
		width:   stuffed,
		// sendMIOs carries three MIOs — nine leaves, the closest a
		// three-leaf struct gets to eight.
		build:  threeOps(8, 8, 3),
		mutate: func(rng *rand.Rand, m *wire.Message) { touch(rng, m, 1) },
		regime: []band{
			atLeast("core.structural_share", 0.99),
			atLeast("diffdeser.fast_path_share", 0.99),
			exactly("pool.rebind_share", 0),
			exactly("wire.delta_send_share", 0),
		},
	},
	{
		name:    "rewrite_bulk",
		why:     "5000 max-width doubles all rewritten per call (185 KB): conversion and the server's value re-lex dominate",
		workers: 1,
		width:   core.WidthPolicy{Double: core.MaxWidth, Int: core.MaxWidth},
		build: func(rng *rand.Rand) []*wire.Message {
			return []*wire.Message{fill(rng, workload.NewDoubles(5000, workload.FillMin).Msg, fullDouble)}
		},
		mutate: func(rng *rand.Rand, m *wire.Message) { fill(rng, m, fullDouble) },
		regime: []band{
			atLeast("core.structural_share", 0.99),
			atLeast("diffdeser.fast_path_share", 0.99),
			exactly("pool.rebind_share", 0),
			exactly("wire.delta_send_share", 0),
		},
	},
	{
		name:    "sparse_delta_link",
		why:     "31 KB messages, 10 leaves changed, patch frames over a 20 MB/s link: wire bytes are the resource, conversion is bypassed",
		workers: 1,
		delta:   true,
		linkBps: 20_000_000,
		width:   stuffed,
		build:   threeOps(1000, 1000, 500),
		mutate:  sparse,
		regime: []band{
			{"core.content_match_share", 0.22, 0.28},
			{"core.structural_share", 0.72, 0.78},
			atLeast("wire.delta_send_share", 0.99),
			exactly("wire.delta_resync_share", 0),
			exactly("pool.rebind_share", 0),
		},
	},
	{
		name:    "reshape_cold",
		why:     "sendMIOs at 16 array lengths in rotation: every call misses both template caps, so it is all template build and full parse",
		workers: 1,
		width:   stuffed,
		build: func(rng *rand.Rand) []*wire.Message {
			msgs := make([]*wire.Message, 16)
			for j := range msgs {
				msgs[j] = fill(rng, workload.NewMIOs(200+16*j, workload.FillMin).Msg, fitDouble)
			}
			return msgs
		},
		mutate: func(rng *rand.Rand, m *wire.Message) { touch(rng, m, 10) },
		regime: []band{
			atLeast("core.first_time_share", 0.99),
			{"diffdeser.fast_path_share", 0, 0.01},
			exactly("pool.rebind_share", 0),
		},
	},
	{
		name:    "shared_2w",
		why:     "2 workers on 2 connections cycling the same three structures: replica registry, locks and message-replica rebinds under concurrency",
		workers: 2,
		width:   stuffed,
		build:   threeOps(1000, 1000, 500),
		mutate:  sparse,
		regime: []band{
			{"pool.rebind_share", 0.4, 0.6},
			atLeast("diffdeser.fast_path_share", 0.95),
			exactly("core.first_time_share", 0),
			exactly("wire.delta_send_share", 0),
		},
	},
	{
		name:    "pipelined_d8",
		why:     "8 messages in flight on one connection at depth 8, 10% of leaves changed: client serialize overlaps server decode, futures and in-order responses",
		workers: 1,
		depth:   8,
		width:   stuffed,
		// At most three lengths per operation: more would thrash the
		// per-operation template cap of 4 and turn the run cold.
		build: func(rng *rand.Rand) []*wire.Message {
			var msgs []*wire.Message
			for _, n := range []int{1000, 800, 600} {
				msgs = append(msgs,
					fill(rng, workload.NewDoubles(n, workload.FillMin).Msg, fitDouble),
					fill(rng, workload.NewInts(n, workload.FillMin).Msg, fitDouble))
			}
			for _, n := range []int{500, 400} {
				msgs = append(msgs, fill(rng, workload.NewMIOs(n, workload.FillMin).Msg, fitDouble))
			}
			return msgs
		},
		mutate: func(rng *rand.Rand, m *wire.Message) { touch(rng, m, m.NumLeaves()/10) },
		regime: []band{
			atLeast("core.structural_share", 0.99),
			atLeast("diffdeser.fast_path_share", 0.99),
			exactly("pool.rebind_share", 0),
			exactly("wire.delta_send_share", 0),
		},
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
