package transport

import (
	"fmt"
	"net"
	"sync"
)

// errPipelineClosed is the sticky error a Pipeline fails with when it is
// shut down by Close rather than by an I/O error: pendings still in
// flight (and any later Submit) resolve with it.
var errPipelineClosed = fmt.Errorf("transport: pipeline closed")

// Pending is the completion handle of one pipelined request: it resolves
// once the request's response has been read off the connection, or once
// the pipeline fails (every Pending resolves — a broken connection fails
// all of them rather than leaving any waiter blocked forever).
type Pending struct {
	done   chan struct{}
	status int
	err    error
}

// Done returns a channel that is closed when the outcome is available;
// after that Wait returns without blocking.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until the request's response has been read (or the
// pipeline failed) and returns the outcome: nil for a 2xx response, an
// error for a non-2xx status or a transport failure.
func (p *Pending) Wait() error {
	<-p.done
	return p.err
}

func (p *Pending) complete(status int, err error) {
	p.status = status
	p.err = err
	close(p.done)
}

// Pipeline layers depth-bounded HTTP request pipelining over one dialed
// Sender: up to depth requests ride the connection before the first
// response is read, and a dedicated reader goroutine completes the
// per-request Pending handles strictly in submission order (HTTP/1.x
// responses carry no request id — FIFO is the protocol's matching rule).
//
// The write itself happens on the submitter's goroutine under an
// internal mutex, not on a writer goroutine: the engine's scatter-gather
// buffers point straight into template chunks that are only stable while
// the caller holds its template replica, so handing them to another
// goroutine would force a copy on every send. Acquisition order under
// the mutex equals wire order equals completion order.
//
// Failure semantics: the first write or read error (and Close) breaks
// the pipeline permanently. Every Pending already submitted resolves
// with the response it got or with the sticky error; later Submit
// calls fail immediately. The Sender underneath can then be Redialed
// and wrapped in a fresh Pipeline. A non-2xx response fails only its own
// Pending — the response was fully read, so the connection stays usable.
type Pipeline struct {
	s *Sender

	// OnStall, when set, is invoked each time a Submit must wait for
	// in-flight responses because the pipeline is at depth. OnComplete is
	// invoked exactly once per Pending as it resolves (success, error, or
	// pipeline failure). Both must be set before the first Submit and
	// must be safe for concurrent use.
	OnStall    func()
	OnComplete func()

	// writeMu serializes request writes and queue pushes, so the pending
	// queue's order is exactly the wire's. The reader also takes it once,
	// after the sticky error is set, to fence out in-progress submits
	// before failing the queue's remainder.
	writeMu sync.Mutex
	queue   chan *Pending
	slots   chan struct{}

	broken chan struct{} // closed with the first failure
	done   chan struct{} // closed when the reader goroutine exits

	errMu sync.Mutex
	err   error
}

// NewPipeline wraps s for pipelined use, starting the reader goroutine.
// The Sender must not be used directly (Send/streaming) until
// the pipeline is closed: its connection and read buffer now belong to
// the reader. depth < 1 is treated as 1. A bare TCP connection's send
// buffer is raised to depth requests' worth, so a full window of
// requests fits in the socket and Submit does not block in write before
// the depth bound does.
func NewPipeline(s *Sender, depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	if tc, ok := s.conn.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(depth * sockBufPerRequest)
	}
	pl := &Pipeline{
		s:      s,
		queue:  make(chan *Pending, depth),
		slots:  make(chan struct{}, depth),
		broken: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go pl.readLoop()
	return pl
}

// InFlight reports how many requests are currently on the wire awaiting
// their response (approximate under concurrency).
func (pl *Pipeline) InFlight() int { return len(pl.slots) }

// Err returns the sticky error, nil while the pipeline is healthy.
func (pl *Pipeline) Err() error {
	pl.errMu.Lock()
	defer pl.errMu.Unlock()
	return pl.err
}

// Broken reports whether the pipeline has failed or been closed.
func (pl *Pipeline) Broken() bool { return pl.Err() != nil }

// fail records the first error and wakes everything blocked on pipeline
// health; later calls are no-ops (first error wins).
func (pl *Pipeline) fail(err error) {
	pl.errMu.Lock()
	if pl.err == nil {
		pl.err = err
		close(pl.broken)
	}
	pl.errMu.Unlock()
}

// Submit is the write half of Sender.Submit: it puts bufs on the wire
// annotated per an and returns a Pending that resolves when its in-order
// response has been read. The write runs on the caller's goroutine (see
// the type comment); when depth requests are already in flight, Submit
// blocks until a response frees a slot, reporting the stall through
// OnStall. A write error breaks the pipeline and is returned directly —
// no Pending is created for a request that never got onto the wire. A
// refused patch resolves its Pending with wire.ErrDeltaResync and leaves
// the pipeline healthy, so the caller can resubmit in full.
func (pl *Pipeline) Submit(bufs net.Buffers, an Annotation) (*Pending, error) {
	select {
	case pl.slots <- struct{}{}:
	default:
		if pl.OnStall != nil {
			pl.OnStall()
		}
		select {
		case pl.slots <- struct{}{}:
		case <-pl.broken:
			return nil, pl.Err()
		}
	}
	pl.writeMu.Lock()
	if err := pl.Err(); err != nil {
		pl.writeMu.Unlock()
		// The slot taken above belongs to no request; hand it back so the
		// pipeline's accounting stays exact for any concurrent submitter
		// still racing the failure.
		<-pl.slots
		return nil, err
	}
	// Write and queue push both happen under writeMu: the queue's order
	// is the wire's, which the sender's noting of syncs at write time
	// relies on.
	if err := pl.s.writeRequest(bufs, an); err != nil {
		pl.fail(err)
		pl.writeMu.Unlock()
		return nil, err
	}
	p := &Pending{done: make(chan struct{})}
	pl.queue <- p // a slot is held, so the queue (cap = depth) has room
	pl.writeMu.Unlock()
	return p, nil
}

// readLoop is the ordered reader: one response per queued Pending, FIFO.
func (pl *Pipeline) readLoop() {
	defer close(pl.done)
	var resp Response // private parse state; next-read-invalidates
	for {
		select {
		case <-pl.broken:
			pl.drainFail()
			return
		case p := <-pl.queue:
			if err := pl.s.readResponse(&resp); err != nil {
				// The response stream is gone (or desynchronized): every
				// request behind this one is undeliverable too.
				pl.fail(fmt.Errorf("transport: pipeline read: %w", err))
				pl.resolve(p, 0, pl.Err())
				pl.drainFail()
				return
			}
			// A non-2xx (a refused patch included) fails only this request:
			// the response was fully read and the connection is healthy.
			serr := pl.s.classify(&resp)
			pl.resolve(p, resp.Status, serr)
			<-pl.slots
		}
	}
}

// resolve counts first, then wakes: whoever Wait releases must already
// see what OnComplete accounted (the pool's futures_pending gauge).
func (pl *Pipeline) resolve(p *Pending, status int, err error) {
	if pl.OnComplete != nil {
		pl.OnComplete()
	}
	p.complete(status, err)
}

// drainFail fails every Pending still queued. Taking writeMu first
// serializes with a Submit mid-push: once drainFail holds the lock,
// any later submit sees the sticky error before writing, so no Pending
// can slip into the queue unresolved after the drain.
func (pl *Pipeline) drainFail() {
	err := pl.Err()
	pl.writeMu.Lock()
	defer pl.writeMu.Unlock()
	for {
		select {
		case p := <-pl.queue:
			pl.resolve(p, 0, err)
		default:
			return
		}
	}
}

// Close breaks the pipeline, closes the underlying connection, and waits
// for the reader goroutine to exit; every unresolved Pending completes
// with an error. The Sender itself survives — Redial gives it a fresh
// connection for a new Pipeline (or plain serial use).
func (pl *Pipeline) Close() error {
	pl.fail(errPipelineClosed)
	_ = pl.s.Close() // unblocks a reader mid-read
	<-pl.done
	return nil
}
