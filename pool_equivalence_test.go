package bsoap_test

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"

	"bsoap"
	"bsoap/internal/baseline"
	"bsoap/internal/chunk"
	"bsoap/internal/harness"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// canon strips the whitespace runs that stuffing, shrink padding and
// tag shifts leave between a '>' and the following '<'. For numeric
// workloads (whose values contain no whitespace) this is a canonical
// form: two serializations of the same values canonicalize to identical
// bytes regardless of how the template padded them.
func canon(b []byte) []byte {
	out := make([]byte, 0, len(b))
	gap := false
	for _, c := range b {
		switch {
		case c == '>':
			gap = true
			out = append(out, c)
		case c == '<':
			gap = false
			out = append(out, c)
		case gap && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			// inter-tag padding: drop.
		default:
			out = append(out, c)
		}
	}
	return out
}

// recordSink is an in-process core.Sink capturing every message sent
// through the pool, in order.
type recordSink struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (r *recordSink) Send(bufs net.Buffers) error {
	var b []byte
	for _, seg := range bufs {
		b = append(b, seg...)
	}
	r.mu.Lock()
	r.msgs = append(r.msgs, b)
	r.mu.Unlock()
	return nil
}

func (r *recordSink) last() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.msgs) == 0 {
		return nil
	}
	return r.msgs[len(r.msgs)-1]
}

// target is one message under mutation: mutate applies a random edit
// (possibly none) before each call.
type target struct {
	name   string
	msg    *wire.Message
	mutate func(rng *rand.Rand)
}

func doublesTarget(name string, n int) *target {
	w := workload.NewDoubles(n, workload.FillMin)
	arr := w.Arr
	return &target{name: name, msg: w.Msg, mutate: func(rng *rand.Rand) {
		switch rng.Intn(10) {
		case 0, 1, 2:
			// Untouched: the next call must be a content match resend.
		case 3, 4, 5, 6:
			// Width-neutral touches (1-char value to 1-char value) and
			// shrinks of previously grown elements.
			for i := 0; i < arr.Len(); i++ {
				if rng.Intn(3) == 0 {
					if arr.Get(i) == workload.MinDouble {
						arr.Set(i, workload.MinDouble2)
					} else {
						arr.Set(i, workload.MinDouble)
					}
				}
			}
		case 7, 8:
			// Grow a few elements to maximal width, forcing steals or
			// shifts (and chunk splits under small-chunk configs).
			for k := 0; k < 3; k++ {
				arr.Set(rng.Intn(arr.Len()), workload.MaxDouble)
			}
		case 9:
			// Structural change: the next call is a first-time send.
			w.Msg.ResizeArray(0, 8+rng.Intn(96))
		}
	}}
}

func intsTarget(name string, n int) *target {
	w := workload.NewInts(n, workload.FillIntermediate)
	arr := w.Arr
	return &target{name: name, msg: w.Msg, mutate: func(rng *rand.Rand) {
		switch rng.Intn(8) {
		case 0, 1:
		case 2, 3, 4:
			// Width-neutral touches (the helpers on workload.Ints cache
			// the construction-time length, so after a resize we walk the
			// array ref directly).
			for i := 0; i < arr.Len(); i++ {
				if rng.Intn(3) == 0 {
					if arr.Get(i) == workload.MinInt {
						arr.Set(i, workload.MinInt+1)
					} else {
						arr.Set(i, workload.MinInt)
					}
				}
			}
		case 5, 6:
			for k := 0; k < 2; k++ {
				arr.Set(rng.Intn(arr.Len()), workload.MaxInt)
			}
		case 7:
			w.Msg.ResizeArray(0, 8+rng.Intn(64))
		}
	}}
}

func miosTarget(name string, n int) *target {
	w := workload.NewMIOs(n, workload.FillIntermediate)
	arr := w.Arr
	return &target{name: name, msg: w.Msg, mutate: func(rng *rand.Rand) {
		switch rng.Intn(8) {
		case 0, 1:
		case 2, 3, 4:
			for i := 0; i < arr.Len(); i++ {
				if rng.Intn(2) == 0 {
					if arr.Double(i, 2) == workload.MinDouble {
						arr.SetDouble(i, 2, workload.MinDouble2)
					} else {
						arr.SetDouble(i, 2, workload.MinDouble)
					}
				}
			}
		case 5, 6:
			i := rng.Intn(arr.Len())
			arr.SetInt(i, 0, workload.MaxInt)
			arr.SetDouble(i, 2, workload.MaxDouble)
		case 7:
			w.Msg.ResizeArray(0, 4+rng.Intn(24))
		}
	}}
}

// equivConfig is one stuffing/stealing/chunking configuration the
// equivalence properties are checked under; the four cover the policy
// space the paper's experiments sweep.
type equivConfig struct {
	name        string
	cfg         bsoap.Config
	wantPartial bool
}

func equivalenceConfigs() []equivConfig {
	return []equivConfig{
		{"default", bsoap.Config{}, true},
		{"stuffed-18-9-stealing", bsoap.Config{
			Width:          bsoap.WidthPolicy{Double: 18, Int: 9},
			EnableStealing: true,
		}, true},
		{"stuffed-maxwidth", bsoap.Config{
			Width: bsoap.WidthPolicy{Double: bsoap.MaxWidth, Int: bsoap.MaxWidth},
		}, false}, // nothing can outgrow its field: no shifts, no partial matches
		{"small-chunks-stealing", bsoap.Config{
			Chunk:          chunk.Config{ChunkSize: 256},
			EnableStealing: true,
		}, true},
	}
}

// TestPoolBaselineEquivalence is the pool-level property test: a pooled
// differential-serialization client and the from-scratch gSOAP-like
// baseline serializer must agree byte-for-byte (modulo padding) on
// every call of a randomized mutation schedule — across stuffing
// policies, padding stealing, small chunks, template rebinding between
// duplicate messages, and all four match classes.
func TestPoolBaselineEquivalence(t *testing.T) {
	for _, tc := range equivalenceConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recordSink{}
			p, err := bsoap.NewPool(bsoap.PoolOptions{
				Size:     1,
				Replicas: 1,
				Config:   tc.cfg,
				Dial:     func() (bsoap.Sink, error) { return sink, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			// Two doubles messages share one (operation, signature) — the
			// schedule makes them alternate on the single replica, so
			// template rebinds are part of what equivalence covers.
			targets := []*target{
				doublesTarget("doubles-a", 64),
				doublesTarget("doubles-b", 64),
				intsTarget("ints", 64),
				miosTarget("mios", 16),
			}
			ref := new(baseline.GSOAPLike)
			rng := rand.New(rand.NewSource(7))
			seen := map[bsoap.MatchKind]bool{}

			for round := 0; round < 400; round++ {
				tg := targets[rng.Intn(len(targets))]
				tg.mutate(rng)
				want := canon(ref.Serialize(tg.msg))
				ci, err := p.Call(tg.msg)
				if err != nil {
					t.Fatalf("round %d (%s): %v", round, tg.name, err)
				}
				seen[ci.Match] = true
				got := canon(sink.last())
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d (%s, %v): pool bytes diverge from baseline\n got: %s\nwant: %s",
						round, tg.name, ci.Match, got, want)
				}
			}

			wantKinds := []bsoap.MatchKind{bsoap.FirstTime, bsoap.ContentMatch, bsoap.StructuralMatch}
			if tc.wantPartial {
				wantKinds = append(wantKinds, bsoap.PartialMatch)
			}
			for _, k := range wantKinds {
				if !seen[k] {
					t.Errorf("schedule never produced a %v call", k)
				}
			}
			if !tc.wantPartial && seen[bsoap.PartialMatch] {
				t.Errorf("max-width stuffing produced a partial match (a value outgrew its field)")
			}
		})
	}
}

// TestPoolPipelinedEquivalence is the async-path property test: the
// same randomized mutation schedule, run once through a serial pool
// (recording sink) and once through a pipelined pool (depth 4, over a
// real connection to a recording server with matching read-ahead),
// must put byte-identical bodies (modulo padding) on the wire, in the
// same order. Pipelining reorders nothing and shares nothing it should
// not: submission order is wire order, and a message whose previous
// future has resolved may be mutated and resubmitted freely.
func TestPoolPipelinedEquivalence(t *testing.T) {
	const depth = 4
	const rounds = 400

	for _, tc := range equivalenceConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			sink := &recordSink{}
			serial, err := bsoap.NewPool(bsoap.PoolOptions{
				Size:     1,
				Replicas: 1,
				Config:   tc.cfg,
				Dial:     func() (bsoap.Sink, error) { return sink, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer serial.Close()

			rec, piped := harness.Recorder(t, nil, bsoap.PoolOptions{
				Size:          1,
				Replicas:      1,
				Config:        tc.cfg,
				PipelineDepth: depth,
			})

			// Both sides run identical schedules: one rng picks the target
			// each round, and each side mutates its own copy with its own
			// rng — seeded alike, and consuming draws in the same order, so
			// the value histories are identical.
			mkTargets := func() []*target {
				return []*target{
					doublesTarget("doubles-a", 64),
					doublesTarget("doubles-b", 64),
					intsTarget("ints", 64),
					miosTarget("mios", 16),
				}
			}
			sTargets, pTargets := mkTargets(), mkTargets()
			sched := rand.New(rand.NewSource(11))
			sRng := rand.New(rand.NewSource(23))
			pRng := rand.New(rand.NewSource(23))
			pending := make([]*bsoap.Future, len(pTargets))

			for round := 0; round < rounds; round++ {
				i := sched.Intn(len(sTargets))
				st, pt := sTargets[i], pTargets[i]
				// Per-message confinement extends to futures: the pipelined
				// target may still have bytes in flight, so resolve its
				// previous future before mutating.
				if pending[i] != nil {
					if _, err := pending[i].Wait(); err != nil {
						t.Fatalf("round %d (%s): wait: %v", round, pt.name, err)
					}
					pending[i] = nil
				}
				st.mutate(sRng)
				pt.mutate(pRng)
				if _, err := serial.Call(st.msg); err != nil {
					t.Fatalf("round %d (%s): serial: %v", round, st.name, err)
				}
				f, err := piped.CallAsync(pt.msg)
				if err != nil {
					t.Fatalf("round %d (%s): submit: %v", round, pt.name, err)
				}
				pending[i] = f
			}
			for i, f := range pending {
				if f == nil {
					continue
				}
				if _, err := f.Wait(); err != nil {
					t.Fatalf("drain (%s): %v", pTargets[i].name, err)
				}
			}

			got := rec.Bodies()
			if len(sink.msgs) != rounds || len(got) != rounds {
				t.Fatalf("serial recorded %d bodies, server accepted %d, want %d each",
					len(sink.msgs), len(got), rounds)
			}
			for i := range got {
				want := canon(sink.msgs[i])
				if !bytes.Equal(canon(got[i]), want) {
					t.Fatalf("call %d: pipelined body diverges from serial\n got: %s\nwant: %s",
						i, canon(got[i]), want)
				}
			}
			if s := piped.Stats(); s.AsyncCalls != rounds || s.FuturesPending != 0 || s.Errors != 0 {
				t.Fatalf("async_calls=%d futures_pending=%d errors=%d, want %d/0/0",
					s.AsyncCalls, s.FuturesPending, s.Errors, rounds)
			}
		})
	}
}
