package bsoap_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsoap"
	"bsoap/internal/faultwire"
	"bsoap/internal/harness"
	"bsoap/internal/serverpool"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// TestBudgetChaosSoak is the memory-budget survival property: the
// pipelined chaos soak rerun with template budgets on BOTH sides sized
// well below the working set, so budget eviction churns continuously
// while the faultwire injector resets 5% of writes under depth-8
// pipelines. Differential transmission is on end to end, so budget
// eviction also destroys server-held patch bases mid-stream — every
// such loss must degrade to a clean resync, never a corrupt decode.
// Calls may fail; what may never happen is a lost future, a server
// self-check divergence (a differential decode against released,
// recycled, or mis-reconstructed template bytes would show up here), or
// either side's template-bytes gauge reading above its budget.
func TestBudgetChaosSoak(t *testing.T) {
	const (
		// Measured with the server budget off: a server replica is one
		// conn's patch bases with their decode state, plus a response
		// stub whose template is sized to its one-int body (~1 KB). The
		// client budget below rebuilds templates under fresh ids, and
		// the server keeps a base per id up to its cap of 32, so a
		// replica runs 13–55 KB (the largest in ten runs: 54.6 KB), and
		// with the replicas of conns the faults killed the server peaks
		// at 181–258 KB. The budget holds a third to a half of that, and
		// stays above the largest replica so the oversized-entry
		// exemption, which would legitimately push the gauge over
		// budget, never trips.
		serverBudget = 80 << 10
		// A client entry is one stuffed template, 5.4 KB at most (a
		// 44-double body with 16 B a leaf of DUT table and the headers;
		// Stub.Footprint of the largest message below); the
		// per-operation cap keeps four resident, ~15 KB. The budget
		// holds two to three of them, about two thirds: low enough that
		// eviction churns every round, high enough that the alternating
		// submit order below re-hits still-resident templates — the
		// calls that go out as patch frames.
		clientBudget = 10 << 10
		clients      = 4
		window       = 8 // in-flight futures per client == pipeline depth
		rounds       = 60
	)
	sm := transport.NewServerMetrics()
	rt, srv := harness.BenchRuntime(t,
		serverpool.Options{
			Delta:            true,
			SelfCheck:        true,
			Metrics:          sm,
			MaxTemplateBytes: serverBudget,
		},
		transport.ServerOptions{Metrics: sm, ReadAhead: 8})

	inj := faultwire.New(faultwire.Options{
		Seed: 17,
		Probs: faultwire.Probabilities{
			Reset:          0.05,
			MidStreamClose: 0.02,
			DialError:      0.02,
		},
	})

	pools := make([]*bsoap.Pool, clients)
	for id := range pools {
		opts := bsoap.PoolOptions{
			Size:             1,
			PipelineDepth:    window,
			Addr:             srv.Addr(),
			MaxTemplateBytes: clientBudget,
			Delta:            true,
			// Stuffed widths keep touches in place (no shifts), so calls
			// between evictions stay delta-eligible and the soak drives
			// real patch traffic into the churning server.
			Config: bsoap.Config{Width: bsoap.WidthPolicy{Double: 18, Int: 9}, EnableStealing: true},
		}
		opts.Sender.Dialer = inj.Dial(nil)
		pools[id] = harness.Pool(t, opts)
	}

	var submitted, resolved, okCalls, failedCalls, failedSubmits atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once

	// The budget watcher: both gauges must never read above their
	// budgets, at any instant, while eviction churns underneath.
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b := sm.Snapshot().TemplateBytes; b > serverBudget {
				t.Errorf("server template bytes %d exceed budget %d", b, serverBudget)
				return
			}
			for id, p := range pools {
				if b := p.Stats().TemplateBytes; b > clientBudget {
					t.Errorf("client %d template bytes %d exceed budget %d", id, b, clientBudget)
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pool := pools[id]

			msgs := make([]*workload.Doubles, window)
			for i := range msgs {
				msgs[i] = workload.NewDoubles(16+4*i, workload.FillIntermediate)
			}
			futs := make([]*bsoap.Future, window)
			settle := func(i int) {
				if futs[i] == nil {
					return
				}
				if _, err := futs[i].Wait(); err != nil {
					failedCalls.Add(1)
				} else {
					okCalls.Add(1)
				}
				resolved.Add(1)
				futs[i] = nil
			}

			for r := 0; r < rounds; r++ {
				select {
				case <-stop:
					r = rounds - 1 // drain pass: settle, no resubmit below
				default:
				}
				for k := range msgs {
					// Alternate the window direction: under an LRU budget
					// that fits only part of the working set, a strict
					// round-robin would miss on every call; ping-ponging
					// re-hits the resident tail, so evicted-and-rebuilt
					// templates and warm patch-eligible ones interleave.
					i := k
					if r%2 == 1 {
						i = len(msgs) - 1 - k
					}
					m := msgs[i]
					settle(i)
					if r == rounds-1 {
						continue
					}
					m.TouchFraction(0.3)
					f, err := pool.CallAsync(m.Msg)
					if err != nil {
						failedSubmits.Add(1)
						continue
					}
					submitted.Add(1)
					futs[i] = f
				}
			}
			for i := range futs {
				settle(i)
			}
			if got := pool.Stats().FuturesPending; got != 0 {
				t.Errorf("client %d: futures_pending = %d after drain", id, got)
			}
		}(id)
	}

	// Drain the server gracefully once the load has ramped, while
	// pipelines are full and eviction is churning.
	deadline := time.Now().Add(20 * time.Second)
	for okCalls.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatal("load never ramped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stopOnce.Do(func() { close(stop) })
	wg.Wait()
	<-watchDone

	if submitted.Load() != resolved.Load() {
		t.Fatalf("lost futures: %d submitted, %d resolved", submitted.Load(), resolved.Load())
	}
	if okCalls.Load() == 0 {
		t.Fatal("no call survived the chaos; injection rates are too hot to prove anything")
	}
	if inj.Faults() == 0 {
		t.Fatal("no faults injected; the soak proved nothing")
	}
	sst := sm.Snapshot()
	if sst.ReplicaBudgetEvictions == 0 {
		t.Fatal("server never budget-evicted; the budget is too loose to prove anything")
	}
	if hw := sst.TemplateBytesHighWater; hw > serverBudget {
		t.Fatalf("server high water %d exceeds budget %d", hw, serverBudget)
	}
	var clientBudgetEvictions, clientHW, deltaSends, deltaResyncs int64
	for _, p := range pools {
		cst := p.Stats()
		clientBudgetEvictions += cst.TemplateBudgetEvictions
		deltaSends += cst.DeltaSends
		deltaResyncs += cst.DeltaResyncs
		if cst.TemplateBytesHighWater > clientHW {
			clientHW = cst.TemplateBytesHighWater
		}
	}
	if deltaSends == 0 {
		t.Fatal("no client ever sent a patch frame; the soak never exercised differential transmission")
	}
	if clientBudgetEvictions == 0 {
		t.Fatal("no client ever budget-evicted; the budget is too loose to prove anything")
	}
	if clientHW > clientBudget {
		t.Fatalf("client high water %d exceeds budget %d", clientHW, clientBudget)
	}
	st := rt.Stats()
	if st.Requests == 0 {
		t.Fatal("runtime decoded no requests")
	}
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d (of %d requests, faults %v)",
			st.SelfCheckFails, st.Requests, inj.FaultsByKind())
	}
	t.Logf("soak: %d submitted, %d ok, %d failed, %d requests (%d full / %d fast), %d patch sends, %d resyncs (%d server-side), server hw %d/%d (%d budget evictions), client hw %d/%d (%d budget evictions), %d faults %v",
		submitted.Load(), okCalls.Load(), failedCalls.Load(),
		st.Requests, st.FullParses, st.DiffDecodes,
		deltaSends, deltaResyncs, st.DeltaResyncs,
		sst.TemplateBytesHighWater, int64(serverBudget), sst.ReplicaBudgetEvictions,
		clientHW, int64(clientBudget), clientBudgetEvictions,
		inj.Faults(), inj.FaultsByKind())
}
