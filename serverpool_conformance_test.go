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

// TestServerPoolMultiClientConformance runs eight concurrent clients,
// each with its own connection and message shape, against the sharded
// runtime with self-check verification on: every differential fast-path
// decode is re-parsed from scratch and compared leaf by leaf, so any
// cross-replica interference or stale-template reuse fails the run.
// Run under -race this is also the concurrency check on the whole
// serve path.
func TestServerPoolMultiClientConformance(t *testing.T) {
	sm := transport.NewServerMetrics()
	rt, srv := harness.BenchRuntime(t,
		serverpool.Options{DifferentialDeserialization: true, SelfCheck: true, Metrics: sm},
		transport.ServerOptions{Metrics: sm})

	const clients = 8
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pool := harness.ClientPool(t, srv.Addr())
			d := workload.NewDoubles(16+4*id, workload.FillIntermediate) // distinct shape per client
			for r := 0; r < rounds; r++ {
				if r%3 == 1 {
					d.TouchFraction(0.25)
				}
				if _, err := pool.Call(d.Msg); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.Requests != clients*rounds {
		t.Fatalf("runtime handled %d requests, want %d", st.Requests, clients*rounds)
	}
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d", st.SelfCheckFails)
	}
	// Each client's connection owns a replica, so only its first request
	// (and none after) full-parses: the fast-path rate stays ≥ 90%.
	rate := float64(st.DiffDecodes) / float64(st.Requests)
	if rate < 0.9 {
		t.Fatalf("fast-path rate %.2f < 0.90 (full=%d diff=%d)", rate, st.FullParses, st.DiffDecodes)
	}
	if snap := sm.Snapshot(); snap.DDSFastPath != st.DiffDecodes {
		t.Fatalf("metrics fast path %d != runtime %d", snap.DDSFastPath, st.DiffDecodes)
	}
}

// TestServerPoolConformanceUnderChaos is the fault-injected version:
// every client connection runs through a faultwire injector resetting
// writes, truncating streams and failing dials, so the runtime sees
// redials (fresh replicas mid-stream), retried duplicate deliveries and
// abandoned connections. Calls may fail; what may never happen is a
// fast-path decode that differs from a from-scratch parse of the same
// body — SelfCheck re-parses every accepted request and compares leaf
// by leaf, and a single divergence fails the run.
func TestServerPoolConformanceUnderChaos(t *testing.T) {
	sm := transport.NewServerMetrics()
	rt, srv := harness.BenchRuntime(t,
		serverpool.Options{DifferentialDeserialization: true, SelfCheck: true, Metrics: sm},
		transport.ServerOptions{Metrics: sm})

	inj := faultwire.New(faultwire.Options{
		Seed: 7,
		Probs: faultwire.Probabilities{
			Reset:          0.04,
			PartialWrite:   0.02,
			MidStreamClose: 0.02,
			DialError:      0.02,
		},
	})

	const clients = 8
	const rounds = 40
	var okCalls, failedCalls atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			opts := bsoap.PoolOptions{
				Size:             1,
				Addr:             srv.Addr(),
				MaxRetries:       3,
				DialAttempts:     6,
				RedialBackoff:    time.Millisecond,
				RedialBackoffMax: 10 * time.Millisecond,
				RetryBudget:      30 * time.Second,
			}
			opts.Sender.Dialer = inj.Dial(nil)
			pool := harness.Pool(t, opts)
			d := workload.NewDoubles(16+4*id, workload.FillIntermediate)
			for r := 0; r < rounds; r++ {
				if r%3 == 1 {
					d.TouchFraction(0.25)
				}
				if _, err := pool.Call(d.Msg); err != nil {
					failedCalls.Add(1)
				} else {
					okCalls.Add(1)
				}
			}
		}(id)
	}
	wg.Wait()

	if okCalls.Load() == 0 {
		t.Fatal("no call survived the chaos; injection rates are too hot to prove anything")
	}
	if inj.Faults() == 0 {
		t.Fatal("no faults injected; the chaos run proved nothing")
	}
	st := rt.Stats()
	if st.Requests == 0 {
		t.Fatal("runtime decoded no requests")
	}
	if st.SelfCheckFails != 0 {
		t.Fatalf("self-check fails: %d (of %d requests, faults %v)",
			st.SelfCheckFails, st.Requests, inj.FaultsByKind())
	}
	t.Logf("chaos: %d ok, %d failed calls, %d requests decoded (%d full / %d fast), %d faults %v",
		okCalls.Load(), failedCalls.Load(), st.Requests, st.FullParses, st.DiffDecodes,
		inj.Faults(), inj.FaultsByKind())
}

// TestServerDrainUnderLoad shuts the server down gracefully while
// clients are mid-burst: Shutdown must return nil (clean drain), abort
// zero in-flight requests, and every request the transport accepted
// must have been dispatched to the runtime — nothing dropped on the
// floor between read and handle.
func TestServerDrainUnderLoad(t *testing.T) {
	sm := transport.NewServerMetrics()
	rt, srv := harness.BenchRuntime(t,
		serverpool.Options{DifferentialDeserialization: true, Metrics: sm},
		transport.ServerOptions{Metrics: sm})

	const clients = 4
	var started atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pool := harness.ClientPool(t, srv.Addr())
			d := workload.NewDoubles(64, workload.FillIntermediate)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the drain begins (closed
				// listener, closed keep-alive conns); what matters is the
				// server-side accounting below.
				if _, err := pool.Call(d.Msg); err == nil {
					started.Add(1)
				}
			}
		}(id)
	}

	// Let the load ramp, then drain mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() < 50 {
		if time.Now().After(deadline) {
			t.Fatal("load never ramped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	snap := sm.Snapshot()
	if snap.DrainAborted != 0 {
		t.Fatalf("drain_aborted = %d, want 0", snap.DrainAborted)
	}
	if handled := rt.Stats().Requests; handled != snap.Requests {
		t.Fatalf("transport received %d requests but runtime handled %d", snap.Requests, handled)
	}
}
