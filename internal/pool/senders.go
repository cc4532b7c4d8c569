package pool

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/transport"
)

// errPoolClosed is returned by checkout after Close.
var errPoolClosed = fmt.Errorf("pool: closed")

// errDialFailed is wrapped by Call errors whose cause was never getting
// a healthy connection (all dial/redial attempts failed). Metrics use it
// to separate dial failures from send and deadline errors.
var errDialFailed = fmt.Errorf("pool: dial failed")

// pooledSender is one slot of the connection pool: an (initially
// undialed) sink plus its health state. It is owned exclusively by the
// goroutine that checked it out.
type pooledSender struct {
	sink   core.Sink
	broken bool
	// pipeline wraps sink on a pipelined pool (nil on serial pools and
	// until the slot's first call). It must be closed before the sink is
	// redialed or closed: a future's waiter may be reading through the
	// sender's buffered reader, and closing fails any pending futures.
	pipeline *transport.Pipeline
	// render serializes from scratch the calls the template store refuses
	// a template: a diff-off stub writing through renderSink, both
	// confined to the slot as its connection is. Its bodies carry no
	// delta annotation, so none becomes a patch base.
	render     *core.Stub
	renderSink callSink
}

// senderPool is a bounded set of connections with checkout/checkin
// semantics. Slots start undialed; the first checkout that uses a slot
// dials it (lazy dial). A send error marks the slot broken, and the
// next use repairs it — Sender.Redial for dialed transports, close +
// fresh dial otherwise — under exponential backoff with jitter.
type senderPool struct {
	slots chan *pooledSender
	dial  func() (core.Sink, error)

	dialAttempts int
	backoffBase  time.Duration
	backoffMax   time.Duration

	// now and sleep are the pool's clock, injectable so backoff growth,
	// jitter bounds and the retry budget are testable without real
	// sleeps. Defaults: time.Now / time.Sleep.
	now   func() time.Time
	sleep func(time.Duration)

	metrics *Metrics

	mu     sync.Mutex
	closed bool

	// rng drives backoff jitter; guarded by rngMu (math/rand's global
	// source would serialize all pools).
	rngMu sync.Mutex
	rng   *rand.Rand
}

func newSenderPool(size int, dial func() (core.Sink, error), opts Options, m *Metrics) *senderPool {
	sp := &senderPool{
		slots:        make(chan *pooledSender, size),
		dial:         dial,
		dialAttempts: opts.DialAttempts,
		backoffBase:  opts.RedialBackoff,
		backoffMax:   opts.RedialBackoffMax,
		now:          time.Now,
		sleep:        time.Sleep,
		metrics:      m,
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	cfg := opts.Config
	cfg.DisableDiff = true
	for i := 0; i < size; i++ {
		ps := &pooledSender{}
		ps.render = core.NewStub(cfg, &ps.renderSink)
		sp.slots <- ps
	}
	return sp
}

// checkout removes a slot from the pool, blocking when all slots are in
// use (the blocked case is counted as a checkout wait and reported via
// waited, which the flight recorder tags the checkout event with). close
// closes the slot channel, so on a closed pool the receive itself says so.
func (sp *senderPool) checkout() (ps *pooledSender, waited bool, err error) {
	sp.metrics.checkouts.Add(1)
	select {
	case ps, ok := <-sp.slots:
		if !ok {
			return nil, false, errPoolClosed
		}
		return ps, false, nil
	default:
	}
	sp.metrics.checkoutWaits.Add(1)
	ps, ok := <-sp.slots
	if !ok {
		return nil, true, errPoolClosed
	}
	return ps, true, nil
}

// checkin returns a slot. The channel has capacity for every slot, so
// this never blocks; after Close the slot's connection is torn down
// instead.
func (sp *senderPool) checkin(ps *pooledSender) {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		teardown(ps)
		return
	}
	sp.slots <- ps
	sp.mu.Unlock()
}

// ensure hands back a healthy sink for the slot, lazily dialing or
// repairing it with backoff, never sleeping past deadline (the Call's
// retry budget). It runs on the slot owner's goroutine, and the call
// path invokes it before acquiring a template replica so the backoff sleeps
// here only ever hold the pool slot — never a replica lock that other
// callers of a hot operation could be queued on.
func (sp *senderPool) ensure(ps *pooledSender, deadline time.Time) (core.Sink, error) {
	if ps.sink != nil && !ps.broken {
		return ps.sink, nil
	}
	var lastErr error
	for attempt := 0; attempt < sp.dialAttempts; attempt++ {
		if attempt > 0 {
			d := sp.backoff(attempt)
			if sp.now().Add(d).After(deadline) {
				return nil, fmt.Errorf("pool: connection unavailable: %w (after %d attempts, last error: %v)",
					errRetryBudgetExhausted, attempt, lastErr)
			}
			sp.sleep(d)
		}
		if ps.broken {
			if s, ok := ps.sink.(*transport.Sender); ok {
				err := s.Redial()
				if err == nil {
					ps.broken = false
					sp.metrics.redials.Add(1)
					return ps.sink, nil
				}
				sp.metrics.dialFailures.Add(1)
				if !errors.Is(err, transport.ErrNotDialed) {
					lastErr = err
					continue
				}
				// Wrapped connection with no redial address: fall
				// through to a fresh dial.
			}
			closeSink(ps.sink)
			ps.sink = nil
			ps.broken = false
		}
		if ps.sink == nil {
			s, err := sp.dial()
			if err != nil {
				lastErr = err
				sp.metrics.dialFailures.Add(1)
				continue
			}
			ps.sink = s
			sp.metrics.dials.Add(1)
		}
		return ps.sink, nil
	}
	return nil, fmt.Errorf("pool: connection unavailable after %d attempts: %w: %w", sp.dialAttempts, errDialFailed, lastErr)
}

// backoff computes the pre-attempt delay: base doubled per attempt,
// capped, with up to 50% random jitter so redial storms decorrelate.
func (sp *senderPool) backoff(attempt int) time.Duration {
	d := sp.backoffBase << uint(attempt-1)
	if d > sp.backoffMax || d <= 0 {
		d = sp.backoffMax
	}
	sp.rngMu.Lock()
	j := time.Duration(sp.rng.Int63n(int64(d)/2 + 1))
	sp.rngMu.Unlock()
	return d + j
}

// close tears the pool down: no new checkouts, every idle connection
// closed, and the slot channel closed so blocked checkouts return
// errPoolClosed. Slots still checked out are closed on checkin.
func (sp *senderPool) close() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return
	}
	sp.closed = true
	for {
		select {
		case ps := <-sp.slots:
			teardown(ps)
		default:
			close(sp.slots)
			return
		}
	}
}

// teardown closes a slot's pipeline (failing its pending futures and
// waiting out any read through it) before the underlying connection.
func teardown(ps *pooledSender) {
	if ps.pipeline != nil {
		_ = ps.pipeline.Close()
		ps.pipeline = nil
	}
	closeSink(ps.sink)
}

func closeSink(s core.Sink) {
	if c, ok := s.(io.Closer); ok {
		_ = c.Close()
	}
}
