package pool

import (
	"fmt"
	"sync"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// errNotPipelined is returned by CallAsync on pools configured without a
// pipeline (Options.PipelineDepth == 0).
var errNotPipelined = fmt.Errorf("pool: CallAsync requires Options.PipelineDepth > 0")

// Future is the completion handle of a pipelined call: the request is on
// the wire (serialized through the shared template and submitted), the
// template replica is already released, and the response has not
// necessarily arrived yet. Every Future resolves — a broken connection
// fails its in-flight futures rather than leaving a waiter blocked.
//
// A Future is safe for concurrent use; Wait may be called any number of
// times and returns the same outcome.
type Future struct {
	p   *Pool
	m   *wire.Message
	sub submission        // never written after CallAsync: finish works on a copy
	pd  transport.Pending // the request's place in the pipeline: no allocation of its own

	once sync.Once
	ci   core.CallInfo
	err  error
}

// Wait blocks until the call's response has been read in order off the
// connection and returns the call's serialization info and outcome. On a
// response failure (transport error, non-2xx status, pipeline torn down)
// the template that produced the request is marked suspect — the bytes
// left this client but their delivery is unconfirmed, so the structure's
// next call degrades to a full first-time send instead of diffing
// against them. Response failures are not retried: requests behind this
// one are already on the wire, so a replay would arrive out of order.
// The one exception is a refused patch frame, which is state, not
// failure: the call is resubmitted in full and reports DeltaResync.
func (f *Future) Wait() (core.CallInfo, error) {
	f.once.Do(f.resolve)
	return f.ci, f.err
}

func (f *Future) resolve() { f.ci, f.err = f.p.finish(f.m, f.sub) }

// CallAsync serializes and submits m through a pooled pipelined
// connection and returns a Future resolving when the in-order response
// arrives. The template replica is held only across classify + diff +
// write — it is released before the response returns, so a hot
// operation's replica is never pinned for a round trip (the point of
// pipelining differential sends: serialization overlaps transmission).
//
// Submit-side failures (dial, write) are repaired and retried exactly
// like Pool.Call — it is the same submit — within MaxRetries and the
// RetryBudget; once the request is on the wire the call's failure mode
// moves to the Future (see Future.Wait). The per-message confinement
// contract extends to futures: a message must not be mutated or
// resubmitted until its previous call's Future has resolved.
//
// Pipelined calls always read one response per request, regardless of
// Sender.ExpectResponse — HTTP pipelining needs the response stream to
// stay in lockstep — so the server must respond (bsoap-server does in
// every SOAP mode).
func (p *Pool) CallAsync(m *wire.Message) (*Future, error) {
	if p.opts.PipelineDepth <= 0 {
		return nil, errNotPipelined
	}
	f := &Future{p: p, m: m}
	f.sub = p.submit(m, &f.pd)
	if f.sub.err != nil {
		// Nothing is on the wire and nothing will resolve later: the
		// call ends here.
		_, err := p.finish(m, f.sub)
		return nil, err
	}
	return f, nil
}
