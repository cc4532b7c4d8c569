package pool

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// errPoolClosed is returned by checkout after Close.
var errPoolClosed = fmt.Errorf("pool: closed")

// errDialFailed is wrapped by Call errors whose cause was never getting
// a healthy connection (all dial/redial attempts failed). Metrics use it
// to separate dial failures from send and deadline errors.
var errDialFailed = fmt.Errorf("pool: dial failed")

// pooledSender is one slot of the connection pool: a dialed sender (nil
// until the slot's first call), whose own Broken says whether it needs
// a redial, and the one stub that serializes every call the slot
// carries. It is owned exclusively by the goroutine that checked it
// out; its futures' waiters read through the sender meanwhile.
type pooledSender struct {
	sender *transport.Sender
	// pd is the place on the sender of the request whose Call holds
	// the slot: a Call waits on it before checking the slot back in, so
	// it is never in use twice.
	pd transport.Pending
	// stub writes through sink, both confined to the slot (serve). A
	// refused call's body carries no delta annotation, so it never
	// becomes a patch base.
	stub *core.Stub
	sink callSink
}

// serve serializes m through the slot's stub and r's template, or from
// scratch when the store refused m one (r nil). recharge reports that
// the call, failed or not, changed the engine's footprint: it built,
// grew, split, replaced or dropped the template.
func (ps *pooledSender) serve(r *engine, m *wire.Message) (ci core.CallInfo, recharge bool, err error) {
	var held **core.Template
	var before *core.Template
	if r != nil {
		held, before = &r.tpl, r.tpl
	}
	ci, err = ps.stub.CallHeld(held, m)
	return ci, r != nil && (r.tpl != before || ci.Grows+ci.Splits > 0), err
}

// senderPool is a bounded set of connections with checkout/checkin
// semantics. Slots start undialed; the first checkout that uses a slot
// dials it (lazy dial). A send error marks the slot broken, and the
// next use repairs it with Sender.Redial, under exponential backoff with
// jitter.
type senderPool struct {
	slots chan *pooledSender
	dial  func() (*transport.Sender, error)

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
}

func newSenderPool(size int, dial func() (*transport.Sender, error), opts Options, m *Metrics) *senderPool {
	sp := &senderPool{
		slots:        make(chan *pooledSender, size),
		dial:         dial,
		dialAttempts: opts.DialAttempts,
		backoffBase:  opts.RedialBackoff,
		backoffMax:   opts.RedialBackoffMax,
		now:          time.Now,
		sleep:        time.Sleep,
		metrics:      m,
	}
	for i := 0; i < size; i++ {
		ps := &pooledSender{}
		ps.stub = core.NewStub(opts.Config, &ps.sink)
		sp.slots <- ps
	}
	return sp
}

// checkout removes a slot from the pool, blocking when all slots are in
// use (the blocked case is counted as a checkout wait and reported via
// waited, which the flight recorder tags the checkout event with). close
// closes the slot channel, so on a closed pool the receive itself says so.
func (sp *senderPool) checkout() (ps *pooledSender, waited bool, err error) {
	sp.metrics.c[cCheckouts].Add(1)
	select {
	case ps, ok := <-sp.slots:
		if !ok {
			return nil, false, errPoolClosed
		}
		return ps, false, nil
	default:
	}
	sp.metrics.c[cCheckoutWaits].Add(1)
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

// ensure hands back the slot's healthy sender, lazily dialing or
// repairing it with backoff, never sleeping past deadline (the Call's
// retry budget). It runs on the slot owner's goroutine, and the call
// path invokes it before acquiring a template replica so the backoff sleeps
// here only ever hold the pool slot — never a replica lock that other
// callers of a hot operation could be queued on. The sender's
// X-BSoap-Trace header and its redial and write-deadline events carry
// span, the call's (or none): set before a repair so the redial is
// attributed, and after a fresh dial.
func (sp *senderPool) ensure(ps *pooledSender, deadline time.Time, span uint64) (*transport.Sender, error) {
	if ps.sender != nil {
		ps.sender.TraceSpan = span
		if !ps.sender.Broken() {
			return ps.sender, nil
		}
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
		var err error
		if ps.sender != nil {
			if err = ps.sender.Redial(); err == nil {
				sp.metrics.c[cRedials].Add(1)
			}
		} else if ps.sender, err = sp.dial(); err == nil {
			ps.sender.TraceSpan = span
			sp.metrics.c[cDials].Add(1)
		}
		if err != nil {
			lastErr = err
			sp.metrics.c[cDialFailures].Add(1)
			continue
		}
		return ps.sender, nil
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
	return d + rand.N(d/2+1)
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

// teardown closes a slot's sender, failing its pending futures and
// waiting out any read through it.
func teardown(ps *pooledSender) {
	if ps.sender != nil {
		_ = ps.sender.Close()
	}
}
