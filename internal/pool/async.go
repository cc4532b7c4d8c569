package pool

import (
	"sync"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// Future is the completion handle of any pool call that does not wait
// for its response: the request is on the wire (serialized through the
// shared template and written), the template replica and the connection
// are already released, and the response has not necessarily arrived
// yet. Every Future resolves — a broken connection fails its in-flight
// futures rather than leaving a waiter blocked.
//
// A Future is safe for concurrent use; Wait may be called any number of
// times and returns the same outcome. That is why it is the one
// allocation of an asynchronous call: the pool cannot know when the
// last Wait has returned, so it cannot recycle the handle.
type Future struct {
	p   *Pool
	m   *wire.Message
	sub submission        // never written after CallAsync: finish works on a copy
	pd  transport.Pending // the request's place on the connection: no allocation of its own

	once sync.Once
	ci   core.CallInfo
	err  error
}

// Wait blocks until the call's response has been read in order off the
// connection and returns the call's serialization info and outcome. On a
// response failure (transport error, non-2xx status, connection closed)
// the template that produced the request is marked suspect — the bytes
// left this client but their delivery is unconfirmed, so the structure's
// next call degrades to a full first-time send instead of diffing
// against them. Response failures are not retried: requests behind this
// one may already be on the wire, so a replay would arrive out of order.
// The one exception is a refused patch frame, which is state, not
// failure: the call is resubmitted in full and reports DeltaResync.
func (f *Future) Wait() (core.CallInfo, error) {
	f.once.Do(f.resolve)
	return f.ci, f.err
}

func (f *Future) resolve() { f.ci, f.err = f.p.finish(f.m, f.sub) }

// CallAsync serializes and submits m through a pooled connection and
// returns a Future resolving when the in-order response arrives. The
// template replica is held only across classify + diff + write, and the
// connection is checked back in once the request is written, so other
// callers pipeline behind it up to Options.PipelineDepth requests per
// connection while this one's response is outstanding (the point of
// pipelining differential sends: serialization overlaps transmission).
//
// Submit-side failures (dial, write) are repaired and retried exactly
// like Pool.Call — it is the same submit — within the retry policy's
// bounds; once the request is on the wire the call's failure mode
// moves to the Future (see Future.Wait). The per-message confinement
// contract extends to futures: a message must not be mutated or
// resubmitted until its previous call's Future has resolved.
func (p *Pool) CallAsync(m *wire.Message) (*Future, error) {
	f := &Future{p: p, m: m}
	f.sub = p.open()
	if f.sub.err == nil {
		p.submit(m, &f.sub, &f.pd)
		p.senders.checkin(f.sub.ps)
		f.sub.ps = nil
	}
	if f.sub.err != nil {
		// Nothing is on the wire and nothing will resolve later: the
		// call ends here.
		_, err := p.finish(m, f.sub)
		return nil, err
	}
	return f, nil
}
