package pool

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// fakeClock is a manual clock for the sender pool: sleep advances time
// instantly, so backoff schedules are asserted exactly and the tests
// finish in microseconds of real time.
type fakeClock struct {
	t      time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
}

// install points a sender pool at the fake clock.
func (c *fakeClock) install(sp *senderPool) {
	sp.now = c.now
	sp.sleep = c.sleep
}

// TestBackoffGrowthAndJitter pins the redial backoff schedule: the
// pre-attempt delay doubles from RedialBackoff, caps at
// RedialBackoffMax, and carries at most +50% jitter — all observed
// through the fake clock, with zero real sleeping.
func TestBackoffGrowthAndJitter(t *testing.T) {
	const (
		base     = 10 * time.Millisecond
		max      = 80 * time.Millisecond
		attempts = 7
	)
	dialErr := errors.New("dial refused")
	opts := Options{
		DialAttempts:     attempts,
		RedialBackoff:    base,
		RedialBackoffMax: max,
	}.withDefaults()
	sp := newSenderPool(1, func() (*transport.Sender, error) { return nil, dialErr }, opts, newMetrics())
	clk := newFakeClock()
	clk.install(sp)

	ps := &pooledSender{}
	_, err := sp.ensure(ps, clk.t.Add(time.Hour), 0)
	if !errors.Is(err, dialErr) {
		t.Fatalf("ensure with failing dialer: err=%v, want wrapped dial error", err)
	}
	if errors.Is(err, errRetryBudgetExhausted) {
		t.Fatalf("ensure hit the budget with an hour to spare: %v", err)
	}

	// Attempt 0 dials immediately; attempts 1..n-1 each sleep first.
	if len(clk.sleeps) != attempts-1 {
		t.Fatalf("got %d backoff sleeps, want %d", len(clk.sleeps), attempts-1)
	}
	for i, got := range clk.sleeps {
		want := base << uint(i)
		if want > max {
			want = max
		}
		lo, hi := want, want+want/2
		if got < lo || got > hi {
			t.Errorf("sleep %d = %v, want within [%v, %v] (base %v doubled, capped at %v, ≤50%% jitter)",
				i+1, got, lo, hi, base, max)
		}
	}
	if sp.metrics.c[cDialFailures].Load() != attempts {
		t.Fatalf("dial failures = %d, want %d", sp.metrics.c[cDialFailures].Load(), attempts)
	}
}

// TestEnsureHonorsRetryBudget shows ensure refusing to start a backoff
// sleep that would cross the call's deadline: the error wraps
// errRetryBudgetExhausted and no further sleeping happens.
func TestEnsureHonorsRetryBudget(t *testing.T) {
	opts := Options{
		DialAttempts:     10,
		RedialBackoff:    20 * time.Millisecond,
		RedialBackoffMax: time.Second,
	}.withDefaults()
	sp := newSenderPool(1, func() (*transport.Sender, error) { return nil, fmt.Errorf("down") }, opts, newMetrics())
	clk := newFakeClock()
	clk.install(sp)

	// Budget covers the first dial and one 20–30ms sleep, never the
	// second (40–60ms) one.
	deadline := clk.t.Add(35 * time.Millisecond)
	_, err := sp.ensure(&pooledSender{}, deadline, 0)
	if !errors.Is(err, errRetryBudgetExhausted) {
		t.Fatalf("ensure past deadline: err=%v, want errRetryBudgetExhausted", err)
	}
	if len(clk.sleeps) != 1 {
		t.Fatalf("got %d sleeps, want exactly 1 before the budget ran out", len(clk.sleeps))
	}
	if clk.t.After(deadline) {
		t.Fatalf("clock advanced past the deadline: now=%v deadline=%v", clk.t, deadline)
	}
}

// TestCallRetryBudgetExhausted drives the budget through the public
// Pool.Call path: with every dial failing and a small budget, the call
// fails with errRetryBudgetExhausted and the registry counts it.
func TestCallRetryBudgetExhausted(t *testing.T) {
	p, err := New(Options{
		Size:     1,
		Replicas: 1,
		Addr:     "endpoint.invalid:1",
		Sender: transport.SenderOptions{Dialer: func(string, string) (net.Conn, error) {
			return nil, fmt.Errorf("endpoint down")
		}},
		DialAttempts:     100,
		RedialBackoff:    50 * time.Millisecond,
		RedialBackoffMax: 200 * time.Millisecond,
		RetryBudget:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	clk := newFakeClock()
	clk.install(p.senders)

	d := workload.NewDoubles(8, workload.FillMin)
	if _, err := p.Call(d.Msg); !errors.Is(err, errRetryBudgetExhausted) {
		t.Fatalf("Call with dead endpoint: err=%v, want errRetryBudgetExhausted", err)
	}
	st := p.Stats()
	if st.RetryBudgetExhausted != 1 {
		t.Fatalf("retry_budget_exhausted=%d, want 1", st.RetryBudgetExhausted)
	}
	if st.Errors != 1 {
		t.Fatalf("errors=%d, want 1", st.Errors)
	}
}
