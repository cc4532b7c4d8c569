package pool

import (
	"sync"
	"testing"
	"time"

	"bsoap/internal/core"
	reg "bsoap/internal/replica"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// TestPoolStressSharedStore is the satellite stress test: N goroutines
// share one Pool (and therefore one sharded template store and one
// bounded connection pool) against a real loopback ack server,
// driving mixed content-match / structural-match / partial-match
// workloads. Run under -race it proves the runtime's synchronization;
// the counter assertions prove no call is lost or double-counted.
func TestPoolStressSharedStore(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := New(Options{
		Addr:     srv.Addr(),
		Size:     4,
		Replicas: 4,
		Config:   core.Config{EnableStealing: true, Width: core.WidthPolicy{Double: 18, Int: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns its messages (wire.Message is
			// single-goroutine); templates are shared through the pool.
			d := workload.NewDoubles(200, workload.FillIntermediate)
			ints := workload.NewInts(200, workload.FillIntermediate)
			mios := workload.NewMIOs(100, workload.FillIntermediate)
			for i := 0; i < iters; i++ {
				var m = d.Msg
				switch i % 3 {
				case 1:
					m = ints.Msg
				case 2:
					m = mios.Msg
				}
				// Mixed match classes: mostly untouched (content match
				// when affinity holds), some width-neutral touches
				// (structural), occasional growth (partial/steals).
				switch {
				case i%10 == 9:
					d.GrowFraction(0.05, workload.MaxDouble)
				case i%10 >= 6:
					d.TouchFraction(0.1)
					ints.TouchFraction(0.1)
					mios.TouchDoublesFraction(0.1)
				}
				if _, err := p.Call(m); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := p.Stats()
	total := workers * iters
	if st.Calls != int64(total) {
		t.Fatalf("calls = %d, want %d", st.Calls, total)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d, want 0", st.Errors)
	}
	matchSum := st.FirstTimeSends + st.ContentMatches + st.StructuralMatches +
		st.PartialMatches + st.FullSerializations
	if matchSum != st.Calls {
		t.Fatalf("match kinds sum to %d, calls %d — a call was lost or double-counted", matchSum, st.Calls)
	}

	// Template sharing: first-time sends are bounded by replicas ×
	// distinct structures (3), not by workers × structures.
	if maxFirst := int64(3 * 4); st.FirstTimeSends > maxFirst {
		t.Errorf("first-time sends = %d, want ≤ %d (templates must be shared across workers)",
			st.FirstTimeSends, maxFirst)
	}
	if warm := st.WarmCalls(); warm < int64(total)*9/10 {
		t.Errorf("warm calls = %d of %d, want ≥ 90%%", warm, total)
	}
	if st.BytesSaved <= 0 {
		t.Errorf("bytes saved = %d, want > 0", st.BytesSaved)
	}

	// Every accepted call must have reached the server.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Requests() < int64(total) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Requests(); got != int64(total) {
		t.Fatalf("server received %d requests, want %d", got, total)
	}
	if st.BytesOnWire != srv.Bytes() {
		t.Fatalf("bytes on wire %d != server body bytes %d", st.BytesOnWire, srv.Bytes())
	}
}

// TestDoorkeeperUnderConcurrency has workers rotate more shapes of one
// operation than twice its cap through a shared pool at once, each over
// its own messages, so admissions, refusals and evictions of the one
// group race one another while refused calls go out from scratch
// through whichever connection slot their caller checked out. Run under
// -race it proves the doorkeeper and the slots' stubs need no lock
// beyond the registry shard's; the server's count proves every body
// arrived.
func TestDoorkeeperUnderConcurrency(t *testing.T) {
	p, srv := newAckPool(t, Options{
		Size:     3,
		Replicas: 2,
	})

	const workers, shapes, rounds = 4, 2*reg.TemplatesPerOp + 3, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds := make([]*workload.Doubles, shapes)
			for i := range ds {
				ds[i] = workload.NewDoubles(8+i, workload.FillIntermediate)
			}
			for r := 0; r < rounds; r++ {
				for i, d := range ds {
					d.Arr.Set(r%d.Arr.Len(), float64(r*i))
					if _, err := p.Call(d.Msg); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	calls := int64(workers * shapes * rounds)
	if st.Calls != calls || st.Errors != 0 || srv.Requests() != calls {
		t.Fatalf("calls %d, errors %d, bodies %d; want %d calls, no error", st.Calls, st.Errors, srv.Requests(), calls)
	}
	if st.TemplateRefusals == 0 || st.FullSerializations != st.TemplateRefusals {
		t.Fatalf("refusals %d, full serializations %d; want equal and nonzero", st.TemplateRefusals, st.FullSerializations)
	}
	if n := p.Entries(); n > reg.TemplatesPerOp {
		t.Fatalf("%d entries resident, want at most the cap of %d", n, reg.TemplatesPerOp)
	}
}
