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

// TestPipelinedChaosSoak is the async path's survival property: four
// clients each keep a depth-8 pipeline full through a faultwire
// injector resetting 5% of writes, and the server is gracefully
// drained mid-load. Calls may fail — what may never happen is a future
// that neither resolves nor errors (a lost future), a server self-check
// divergence (a differential decode disagreeing with a from-scratch
// parse), or a client stats leak (futures_pending stuck nonzero).
func TestPipelinedChaosSoak(t *testing.T) {
	sm := transport.NewServerMetrics()
	rt, srv := harness.BenchRuntime(t,
		serverpool.Options{SelfCheck: true, Metrics: sm},
		transport.ServerOptions{Metrics: sm, ReadAhead: 8})

	inj := faultwire.New(faultwire.Options{
		Seed: 17,
		Probs: faultwire.Probabilities{
			Reset:          0.05,
			MidStreamClose: 0.02,
			DialError:      0.02,
		},
	})

	const (
		clients = 4
		window  = 8 // in-flight futures per client == pipeline depth
		rounds  = 60
	)
	var submitted, resolved, okCalls, failedCalls, failedSubmits atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once

	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			opts := bsoap.PoolOptions{
				Size:          1,
				PipelineDepth: window,
				Addr:          srv.Addr(),
			}
			opts.Sender.Dialer = inj.Dial(nil)
			pool := harness.Pool(t, opts)

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
				for i, m := range msgs {
					settle(i)
					if r == rounds-1 {
						continue
					}
					// The message's previous future is resolved: mutating
					// and resubmitting is safe.
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
	// pipelines are still full.
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

	if submitted.Load() != resolved.Load() {
		t.Fatalf("lost futures: %d submitted, %d resolved", submitted.Load(), resolved.Load())
	}
	if okCalls.Load() == 0 {
		t.Fatal("no call survived the chaos; injection rates are too hot to prove anything")
	}
	if inj.Faults() == 0 {
		t.Fatal("no faults injected; the soak proved nothing")
	}
	st := rt.Stats()
	if st.Requests == 0 {
		t.Fatal("runtime decoded no requests")
	}
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d (of %d requests, faults %v)",
			st.SelfCheckFails, st.Requests, inj.FaultsByKind())
	}
	t.Logf("soak: %d submitted, %d ok, %d failed, %d failed submits, %d requests decoded (%d full / %d fast), %d faults %v",
		submitted.Load(), okCalls.Load(), failedCalls.Load(), failedSubmits.Load(),
		st.Requests, st.FullParses, st.DiffDecodes, inj.Faults(), inj.FaultsByKind())
}
