package bsoap_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"bsoap"
	"bsoap/internal/baseline"
	"bsoap/internal/core"
	"bsoap/internal/harness"
	"bsoap/internal/pool"
	"bsoap/internal/replica"
	"bsoap/internal/serverpool"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// TestPoolDeltaEquivalence is the differential-transmission half of the
// equivalence suite: the same randomized mutation schedule as the
// baseline property test, run through a delta-negotiating pool against
// the recording server. Every body the server ends up holding — whether
// it arrived in full or was reconstructed from a patch frame — must be
// byte-equivalent (modulo padding) to a from-scratch serialization of
// the call's values, in call order, under all four policy configs.
func TestPoolDeltaEquivalence(t *testing.T) {
	const rounds = 400
	for _, tc := range equivalenceConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			sm := transport.NewServerMetrics()
			rec, p := harness.Recorder(t, nil, sm, bsoap.PoolOptions{
				Size:     1,
				Replicas: 1,
				Config:   tc.cfg,
				Delta:    true,
			})

			targets := []*target{
				doublesTarget("doubles-a", 64),
				doublesTarget("doubles-b", 64),
				intsTarget("ints", 64),
				miosTarget("mios", 16),
			}
			ref := new(baseline.GSOAPLike)
			rng := rand.New(rand.NewSource(7))
			want := make([][]byte, 0, rounds)

			for round := 0; round < rounds; round++ {
				tg := targets[rng.Intn(len(targets))]
				tg.mutate(rng)
				want = append(want, canon(ref.Serialize(tg.msg)))
				if _, err := p.Call(tg.msg); err != nil {
					t.Fatalf("round %d (%s): %v", round, tg.name, err)
				}
			}

			got := rec.Bodies()
			if len(got) != rounds {
				t.Fatalf("server holds %d bodies, want %d", len(got), rounds)
			}
			for i := range got {
				if !bytes.Equal(canon(got[i]), want[i]) {
					t.Fatalf("call %d: server body diverges from baseline\n got: %s\nwant: %s",
						i, canon(got[i]), want[i])
				}
			}

			st := p.Stats()
			if st.DeltaSends == 0 {
				t.Fatal("schedule never sent a patch frame; delta negotiation is broken")
			}
			if st.DeltaResyncs != 0 {
				t.Errorf("delta resyncs = %d, want 0 (nothing evicted server state)", st.DeltaResyncs)
			}
			if applied := sm.Snapshot().DeltaApplied; applied != st.DeltaSends {
				t.Errorf("server applied %d patches, client sent %d", applied, st.DeltaSends)
			}
			if st.BytesOnWire >= st.BytesRepresented {
				t.Errorf("wire bytes %d not below represented bytes %d despite %d patch sends",
					st.BytesOnWire, st.BytesRepresented, st.DeltaSends)
			}
		})
	}
}

// TestPoolDeltaPipelinedEquivalence runs the schedule through a depth-4
// pipelined delta pool and a serial full-body pool side by side: the
// bodies the delta server reconstructs must be byte-identical (modulo
// padding) to the serial pool's wire bytes, in the same order — patch
// framing composes with pipelining without reordering or corrupting
// anything.
func TestPoolDeltaPipelinedEquivalence(t *testing.T) {
	const depth = 4
	const rounds = 400

	for _, tc := range equivalenceConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			srec, serial := harness.Recorder(t, nil, nil, bsoap.PoolOptions{
				Size:     1,
				Replicas: 1,
				Config:   tc.cfg,
			})

			rec, piped := harness.Recorder(t, nil, nil, bsoap.PoolOptions{
				Size:          1,
				Replicas:      1,
				Config:        tc.cfg,
				PipelineDepth: depth,
				Delta:         true,
			})

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

			got, sent := rec.Bodies(), srec.Bodies()
			if len(sent) != rounds || len(got) != rounds {
				t.Fatalf("serial recorded %d bodies, server holds %d, want %d each",
					len(sent), len(got), rounds)
			}
			for i := range got {
				want := canon(sent[i])
				if !bytes.Equal(canon(got[i]), want) {
					t.Fatalf("call %d: reconstructed body diverges from serial\n got: %s\nwant: %s",
						i, canon(got[i]), want)
				}
			}
			s := piped.Stats()
			if s.DeltaSends == 0 {
				t.Fatal("pipelined pool never sent a patch frame")
			}
			if s.AsyncCalls != rounds || s.FuturesPending != 0 || s.Errors != 0 {
				t.Fatalf("async_calls=%d futures_pending=%d errors=%d, want %d/0/0",
					s.AsyncCalls, s.FuturesPending, s.Errors, rounds)
			}
		})
	}
}

// TestDeltaConformanceBesideIdlessPeer runs the server's two lookups side
// by side on one runtime. A delta pool on one connection sends the
// equivalence schedule — syncs and patches, each decoded against the body
// held for its template id — while on another connection a gSOAP-like
// client, a peer that names no template, sends the same operations in
// full, each decoded against whichever retained body of its operation has
// its length. SelfCheck re-parses every fast-path decode from scratch and
// compares it leaf by leaf: neither path may disagree with that oracle.
func TestDeltaConformanceBesideIdlessPeer(t *testing.T) {
	const rounds = 400
	rt, srv := harness.BenchRuntime(t,
		serverpool.Options{Delta: true, SelfCheck: true},
		transport.ServerOptions{})
	p := harness.Pool(t, bsoap.PoolOptions{
		Size: 1, Replicas: 2, Delta: true, Addr: srv.Addr(),
		Config: bsoap.Config{Width: bsoap.WidthPolicy{Double: 18, Int: 9}, EnableStealing: true},
	})
	sender, err := transport.Dial(srv.Addr(), transport.SenderOptions{ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	gsoap := baseline.NewClient(new(baseline.GSOAPLike), sender)

	targets := func() []*target {
		return []*target{
			doublesTarget("doubles-a", 64),
			doublesTarget("doubles-b", 64),
			intsTarget("ints", 64),
			miosTarget("mios", 16),
		}
	}
	pooled, plain := targets(), targets()
	sched := rand.New(rand.NewSource(3))
	pRng, gRng := rand.New(rand.NewSource(29)), rand.New(rand.NewSource(29))
	var byID, byLength int64 // fast-path decodes on each connection
	for round := 0; round < rounds; round++ {
		i := sched.Intn(len(pooled))
		pooled[i].mutate(pRng)
		plain[i].mutate(gRng)
		before := rt.Stats().DiffDecodes
		if _, err := p.Call(pooled[i].msg); err != nil {
			t.Fatalf("round %d (%s): delta pool: %v", round, pooled[i].name, err)
		}
		mid := rt.Stats().DiffDecodes
		if _, err := gsoap.Call(plain[i].msg); err != nil {
			t.Fatalf("round %d (%s): gSOAP-like client: %v", round, plain[i].name, err)
		}
		byID += mid - before
		byLength += rt.Stats().DiffDecodes - mid
	}

	st := rt.Stats()
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d of %d requests", st.SelfCheckFails, st.Requests)
	}
	if st.Requests != 2*rounds || p.Stats().Errors != 0 {
		t.Fatalf("runtime decoded %d requests, want %d; %d pool errors", st.Requests, 2*rounds, p.Stats().Errors)
	}
	if st.DeltaApplied == 0 || byID == 0 || byLength == 0 {
		t.Fatalf("a lookup went unexercised: %d patches applied, %d fast decodes by template id, %d by length",
			st.DeltaApplied, byID, byLength)
	}
	t.Logf("%d patches, %d syncs; fast decodes: %d by template id, %d by length", st.DeltaApplied, st.DeltaSyncs, byID, byLength)
}

// resyncScript is the deterministic base-loss script both resync tests
// run: a patch-synchronized client loses its server-side base mid-stream
// and the very next patch must degrade losslessly — one 409, a full
// resend on the same connection, no error surfaced, the call reported as
// the rewrite it was, and patch traffic resuming on the call after. It
// returns the pool's counters for the parity check between call paths.
func resyncScript(t *testing.T, opts bsoap.PoolOptions) bsoap.PoolStats {
	t.Helper()
	sm := transport.NewServerMetrics()
	rec, p := harness.Recorder(t, nil, sm, opts)

	w := workload.NewDoubles(16, workload.FillMin)
	ref := new(baseline.GSOAPLike)
	want := make([][]byte, 0, 8)
	call := func(step string) bsoap.CallInfo {
		t.Helper()
		want = append(want, canon(ref.Serialize(w.Msg)))
		if opts.PipelineDepth == 0 {
			ci, err := p.Call(w.Msg)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			return ci
		}
		f, err := p.CallAsync(w.Msg)
		if err != nil {
			t.Fatalf("%s: submit: %v", step, err)
		}
		ci, err := f.Wait()
		if err != nil {
			t.Fatalf("%s: wait: %v", step, err)
		}
		return ci
	}

	if ci := call("first-time"); ci.DeltaSent || ci.Match != bsoap.FirstTime {
		t.Fatalf("call 1: delta_sent=%v match=%v, want full first-time", ci.DeltaSent, ci.Match)
	}
	if ci := call("patch"); !ci.DeltaSent {
		t.Fatal("call 2: content match did not go out as a patch frame")
	}
	w.Arr.Set(0, workload.MinDouble2)
	if ci := call("patch-dirty"); !ci.DeltaSent {
		t.Fatal("call 3: width-neutral rewrite did not go out as a patch frame")
	}

	// The server loses all bases (eviction, restart): the next patch is
	// refused and must recover within the same call.
	rec.ForgetBases()
	w.Arr.Set(1, workload.MinDouble2)
	ci := call("resync")
	if !ci.DeltaResync || ci.DeltaSent {
		t.Fatalf("call 4: delta_resync=%v delta_sent=%v, want a resynced full resend", ci.DeltaResync, ci.DeltaSent)
	}
	if ci.WireBytes <= ci.Bytes {
		t.Errorf("call 4: wire bytes %d should exceed body %d (refused frame + full body)", ci.WireBytes, ci.Bytes)
	}
	if ci.Match != bsoap.StructuralMatch || ci.ValuesRewritten != 1 || ci.BytesSerialized == 0 {
		t.Errorf("call 4: match=%v rewritten=%d serialized=%d, want the refused attempt's structural match with its 1 rewritten value",
			ci.Match, ci.ValuesRewritten, ci.BytesSerialized)
	}
	if ci := call("repatch"); !ci.DeltaSent || ci.DeltaResync {
		t.Fatalf("call 5: delta_sent=%v delta_resync=%v, want patch traffic restored", ci.DeltaSent, ci.DeltaResync)
	}

	// The refused patch was never recorded; every body the server holds
	// is byte-equivalent to the call's from-scratch serialization.
	got := rec.Bodies()
	if len(got) != len(want) {
		t.Fatalf("server holds %d bodies, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(canon(got[i]), want[i]) {
			t.Fatalf("call %d: server body diverges after resync\n got: %s\nwant: %s", i, canon(got[i]), want[i])
		}
	}
	if n := sm.Snapshot().DeltaResyncs; n != 1 {
		t.Errorf("server refused %d patches, want 1", n)
	}
	st := p.Stats()
	if st.DeltaResyncs != 1 || st.Errors != 0 || st.FuturesPending != 0 {
		t.Errorf("delta_resyncs=%d errors=%d futures_pending=%d, want 1/0/0",
			st.DeltaResyncs, st.Errors, st.FuturesPending)
	}
	return st
}

// TestRecorderPageCountsDeltas reads a recording server's metrics page
// after a script with one refused patch: like the runtime's, its delta
// families count every patch the client sent, every refusal and every
// full body kept as a base.
func TestRecorderPageCountsDeltas(t *testing.T) {
	sm := transport.NewServerMetrics()
	rec, p := harness.Recorder(t, nil, sm, bsoap.PoolOptions{Size: 1, Replicas: 1, Delta: true})
	w := workload.NewDoubles(16, workload.FillMin)
	for i := 0; i < 6; i++ {
		if i == 3 {
			rec.ForgetBases() // the next patch is refused and resent in full
		}
		w.Arr.Set(i, workload.MinDouble2)
		if _, err := p.Call(w.Msg); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.DeltaSends == 0 || st.DeltaResyncs != 1 {
		t.Fatalf("client: %d patches, %d resyncs; want some patches and one resync", st.DeltaSends, st.DeltaResyncs)
	}
	var page bytes.Buffer
	if err := sm.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for family, want := range map[string]int64{
		"bsoap_server_delta_applied_total": st.DeltaSends,
		"bsoap_server_delta_resyncs_total": st.DeltaResyncs,
		"bsoap_server_delta_syncs_total":   st.Calls - st.DeltaSends, // every full body syncs
	} {
		var got int64 = -1
		for _, line := range strings.Split(page.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == family {
				got, _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
		if got != want {
			t.Errorf("%s = %d on the page, want %d", family, got, want)
		}
	}
}

// TestDeltaResyncRecovery runs the script through Call.
func TestDeltaResyncRecovery(t *testing.T) {
	resyncScript(t, bsoap.PoolOptions{Size: 1, Replicas: 1, Delta: true})
}

// TestDeltaResyncOnItsOwnSlot runs the script through Call on a
// one-connection pool: the full resend after the refused patch runs on
// the slot the call already holds, so no call checks out twice or waits
// for a slot.
func TestDeltaResyncOnItsOwnSlot(t *testing.T) {
	st := resyncScript(t, bsoap.PoolOptions{Size: 1, Replicas: 1, Delta: true})
	if st.DeltaResyncs != 1 || st.Checkouts != st.Calls || st.CheckoutWaits != 0 {
		t.Errorf("resyncs=%d checkouts=%d calls=%d waits=%d, want 1 resync, one checkout per call, no wait",
			st.DeltaResyncs, st.Checkouts, st.Calls, st.CheckoutWaits)
	}
}

// TestDeltaResyncRecoveryPipelined is the same script through the async
// path: the rejected patch fails its pending in order, the call is
// resubmitted as a full send, and the caller sees one successful call
// flagged delta_resync — never an error, never a lost or duplicated
// body — that reports, and is counted as, exactly what the serial path
// reports and counts.
func TestDeltaResyncRecoveryPipelined(t *testing.T) {
	serial := resyncScript(t, bsoap.PoolOptions{Size: 1, Replicas: 1, Delta: true})
	piped := resyncScript(t, bsoap.PoolOptions{Size: 1, Replicas: 1, Delta: true, PipelineDepth: 4})
	for _, c := range []struct {
		name         string
		serial, pipe int64
	}{
		{"calls", serial.Calls, piped.Calls},
		{"first_time_sends", serial.FirstTimeSends, piped.FirstTimeSends},
		{"content_matches", serial.ContentMatches, piped.ContentMatches},
		{"structural_matches", serial.StructuralMatches, piped.StructuralMatches},
		{"values_rewritten", serial.ValuesRewritten, piped.ValuesRewritten},
		{"tag_shifts", serial.TagShifts, piped.TagShifts},
		{"bytes_serialized", serial.BytesSerialized, piped.BytesSerialized},
		{"bytes_represented", serial.BytesRepresented, piped.BytesRepresented},
		{"bytes_on_wire", serial.BytesOnWire, piped.BytesOnWire},
		{"delta_sends", serial.DeltaSends, piped.DeltaSends},
		{"delta_resyncs", serial.DeltaResyncs, piped.DeltaResyncs},
	} {
		if c.serial != c.pipe {
			t.Errorf("%s: serial pool counted %d, pipelined pool %d", c.name, c.serial, c.pipe)
		}
	}
}

// TestRefusedCallIsNeverAPatchBase runs a delta pool whose operation's
// templates are full, on a serial and on a pipelined connection: the cap
// of held shapes sync once each and then go out as patch frames, while
// one shape more than the cap takes turns, each refused a template by
// the doorkeeper. A refused call is a plain full body — no sync
// annotation, no patch — so the server keeps no base for it, and the
// held shapes' bases stay in step: no resync, and every patch applied.
func TestRefusedCallIsNeverAPatchBase(t *testing.T) {
	const cap = replica.TemplatesPerOp
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			rt, srv := harness.BenchRuntime(t,
				serverpool.Options{Delta: true, SelfCheck: true},
				transport.ServerOptions{ReadAhead: depth})
			p := harness.Pool(t, pool.Options{
				Size: 1, Addr: srv.Addr(), PipelineDepth: depth, Delta: true,
				Config: core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}},
			})
			held := make([]*workload.Doubles, cap)
			for i := range held {
				held[i] = workload.NewDoubles(64+i, workload.FillIntermediate)
			}
			others := make([]*workload.Doubles, cap+1)
			for i := range others {
				others[i] = workload.NewDoubles(64+cap+i, workload.FillIntermediate)
			}
			call := func(d *workload.Doubles, i int) core.CallInfo {
				t.Helper()
				d.Arr.Set(i%d.Arr.Len(), float64(i))
				ci, err := p.Call(d.Msg)
				if err != nil {
					t.Fatal(err)
				}
				return ci
			}
			for _, d := range held {
				if ci := call(d, 0); ci.Match != core.FirstTime || ci.DeltaSent {
					t.Fatalf("held shape's first call: %+v", ci)
				}
			}
			const rounds = 6
			for i := 1; i <= rounds; i++ {
				for _, d := range others {
					if ci := call(d, i); ci.Match != core.FullSerialization || ci.DeltaSent || ci.WireBytes != ci.Bytes {
						t.Fatalf("round %d: refused call %+v, want a plain full body", i, ci)
					}
				}
				for _, d := range held {
					if ci := call(d, i); !ci.DeltaSent {
						t.Fatalf("round %d: held shape %+v, want a patch frame", i, ci)
					}
				}
			}
			st, cs := rt.Stats(), p.Stats()
			if st.DeltaSyncs != cap || st.DeltaApplied != cap*rounds || st.DeltaResyncs != 0 || cs.DeltaResyncs != 0 {
				t.Fatalf("server: %d syncs, %d patches applied, %d resyncs; client %d resyncs; want %d, %d, 0, 0",
					st.DeltaSyncs, st.DeltaApplied, st.DeltaResyncs, cs.DeltaResyncs, cap, cap*rounds)
			}
			if cs.TemplateRefusals != (cap+1)*rounds || cs.TemplateEvictions != 0 || st.SelfCheckFails != 0 {
				t.Fatalf("client: %d refusals, %d evictions; server %d self-check fails", cs.TemplateRefusals, cs.TemplateEvictions, st.SelfCheckFails)
			}
		})
	}
}
