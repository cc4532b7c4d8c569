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

// Pending is the completion state of one pipelined request, filled in by
// Pipeline.Submit: it resolves once the request's response has been read
// off the connection, or once the pipeline fails (every Pending resolves
// — a broken connection fails all of them rather than leaving any waiter
// blocked forever). The caller owns its storage, so it can live inside
// whatever tracks the call; once resolved it may be submitted again.
type Pending struct {
	pl     *Pipeline
	done   bool // guarded by pl.mu, as are status and err
	status int
	err    error
}

// Wait blocks until the request's response has been read (or the
// pipeline failed) and returns the outcome: nil for a 2xx response, an
// error for a non-2xx status or a transport failure. The waiter does the
// reading: until its own response is in, it reads the oldest one
// outstanding, or waits while another goroutine does.
func (p *Pending) Wait() error {
	pl := p.pl
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for !p.done {
		pl.readOldest()
	}
	return p.err
}

// Pipeline layers depth-bounded HTTP request pipelining over one dialed
// Sender: up to depth requests ride the connection before the first
// response is read, and responses resolve the Pendings strictly in
// submission order (HTTP/1.x responses carry no request id — FIFO is the
// protocol's matching rule).
//
// A Pipeline runs on its callers' goroutines only. The write happens on
// the submitter's, under writeMu: the engine's scatter-gather buffers
// point straight into template chunks that are only stable while the
// caller holds its template replica, so handing them to another
// goroutine would force a copy on every send. A response is read by
// whoever needs one — a Pending.Wait, or a Submit at depth — one at a
// time, with the read-and-classify step Sender.Submit runs inline.
// Acquisition order under writeMu equals wire order equals completion
// order.
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
	// pipeline failure). Both must be set before the first Submit, must
	// be safe for concurrent use, and run with the pipeline's state
	// locked, so they must not call back into it.
	OnStall    func()
	OnComplete func()

	// writeMu serializes Submits — depth check, write and queue push —
	// so the queue's order is exactly the wire's. It is taken before mu.
	writeMu sync.Mutex

	// mu guards the fields below and every Pending's outcome; cond is
	// broadcast whenever a read lands or the pipeline breaks.
	mu    sync.Mutex
	cond  sync.Cond
	queue []*Pending // unanswered requests in wire order; cap is depth
	// reading is set while one goroutine reads a response with mu
	// released; resp is its parse state (next read invalidates).
	reading bool
	resp    Response
	err     error // sticky: the first failure
}

// NewPipeline wraps s for pipelined use. The Sender must not be used
// directly (Send/streaming) until the pipeline is closed: its connection
// and read buffer now belong to the pipeline. depth < 1 is treated as 1.
// A bare TCP connection's send buffer is raised to depth requests'
// worth, so a full window of requests fits in the socket and Submit
// does not block in write before the depth bound does.
func NewPipeline(s *Sender, depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	if tc, ok := s.conn.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(depth * sockBufPerRequest)
	}
	pl := &Pipeline{s: s, queue: make([]*Pending, 0, depth)}
	pl.cond.L = &pl.mu
	return pl
}

// InFlight reports how many requests are currently on the wire awaiting
// their response (approximate under concurrency).
func (pl *Pipeline) InFlight() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.queue)
}

// DeltaEpoch is the Sender's (core.DeltaSink): every response read
// through the pipeline keeps its view of the peer's patch bases current.
func (pl *Pipeline) DeltaEpoch(tid uint64) (uint64, bool) { return pl.s.DeltaEpoch(tid) }

// Broken reports whether the pipeline has failed or been closed.
func (pl *Pipeline) Broken() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.err != nil
}

// Submit is the write half of Sender.Submit: it puts bufs on the wire
// annotated per an, and p resolves when its in-order response has been
// read. The write runs on the caller's goroutine (see the type comment);
// when depth requests are already in flight, Submit first reads
// responses until a slot is free, reporting the stall through OnStall.
// A write error breaks the pipeline and is returned directly — p is not
// queued for a request that never got onto the wire. A refused patch
// resolves p with wire.ErrDeltaResync and leaves the pipeline healthy,
// so the caller can resubmit in full.
func (pl *Pipeline) Submit(p *Pending, bufs net.Buffers, an Annotation) error {
	pl.writeMu.Lock()
	defer pl.writeMu.Unlock()
	pl.mu.Lock()
	full := func() bool { return pl.err == nil && len(pl.queue) == cap(pl.queue) }
	if full() && pl.OnStall != nil {
		pl.OnStall()
	}
	for full() { // holding writeMu, nothing else queues: the count only falls
		pl.readOldest()
	}
	err := pl.err
	pl.mu.Unlock()
	if err == nil {
		err = pl.s.writeRequest(bufs, an) // readers touch the read half only
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if err != nil {
		pl.breakLocked(err)
		return err
	}
	*p = Pending{pl: pl}
	pl.queue = append(pl.queue, p)
	if pl.err != nil {
		// Broken (by a failed read or Close) while the request was being
		// written: nobody will read its response.
		pl.breakLocked(pl.err)
	}
	return nil
}

// readOldest is one step of a wait, for a caller holding mu: it waits
// for the read in progress to land, or reads the oldest outstanding
// response itself, with mu released, and resolves that request. A read
// error breaks the pipeline — every request behind the lost response is
// undeliverable too.
func (pl *Pipeline) readOldest() {
	if pl.reading {
		pl.cond.Wait()
		return
	}
	pl.reading = true
	pl.mu.Unlock()
	err := pl.s.readResponse(&pl.resp)
	var cerr error
	if err == nil {
		// A non-2xx (a refused patch included) fails only this request:
		// the response was fully read and the connection is healthy.
		cerr = pl.s.classify(&pl.resp)
	}
	pl.mu.Lock()
	pl.reading = false
	switch {
	case pl.err != nil:
		// Broken while the read was out, which resolved the queue.
	case err != nil:
		pl.breakLocked(fmt.Errorf("transport: pipeline read: %w", err))
	default:
		p := pl.queue[0]
		pl.queue = append(pl.queue[:0], pl.queue[1:]...)
		pl.resolve(p, pl.resp.Status, cerr)
	}
	pl.cond.Broadcast()
}

// breakLocked records the first failure (later ones lose) and resolves
// every queued request with it. Called with mu held.
func (pl *Pipeline) breakLocked(err error) {
	if pl.err == nil {
		pl.err = err
	}
	for _, p := range pl.queue {
		pl.resolve(p, 0, pl.err)
	}
	pl.queue = pl.queue[:0]
	pl.cond.Broadcast()
}

// resolve counts first, then publishes: whoever Wait releases must
// already see what OnComplete accounted (the pool's futures_pending
// gauge). Called with mu held.
func (pl *Pipeline) resolve(p *Pending, status int, err error) {
	if pl.OnComplete != nil {
		pl.OnComplete()
	}
	p.status, p.err, p.done = status, err, true
}

// Close breaks the pipeline, closes the underlying connection, resolves
// every unanswered Pending with an error, and returns once no goroutine
// reads or writes through it. The Sender itself survives — Redial gives
// it a fresh connection for a new Pipeline.
func (pl *Pipeline) Close() error {
	pl.mu.Lock()
	pl.breakLocked(errPipelineClosed)
	pl.mu.Unlock()
	_ = pl.s.Close()  // fails a read or write in progress
	pl.writeMu.Lock() // a Submit mid-write has finished
	defer pl.writeMu.Unlock()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.reading {
		pl.cond.Wait()
	}
	return nil
}
