package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/trace"
	"bsoap/internal/wire"
)

// deltaResyncExtra is the response header that tells a delta client its
// patch was rejected and a full-body resend is required.
var deltaResyncExtra = []byte("X-BSoap-Delta: resync\r\n")

// Handler processes one parsed request and returns the response body, or
// an error which is reported as a 500.
type Handler func(req *Request) ([]byte, error)

// Server accepts persistent connections and feeds each request to a
// handler. With a nil handler it is the paper's dummy server: requests
// are read and discarded without parsing the SOAP payload, and a minimal
// 202 is returned only when the client asks for responses.
type Server struct {
	ln        net.Listener
	handler   Handler
	respond   bool
	logger    *log.Logger
	metrics   *ServerMetrics
	maxConns  int
	inflight  chan struct{} // nil = unlimited; buffered to MaxInFlight
	reqTO     time.Duration
	readAhead int // 0 without a handler: ServerOptions.ReadAhead is ignored
	wg        sync.WaitGroup
	draining  atomic.Bool
	lnOnce    sync.Once
	lnErr     error
	nextConn  atomic.Uint64
	numConns  atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]*connState
}

// connState tracks what a connection is doing, for drain: park says
// whether its reader waits for the first byte of a next request, pending
// counts the requests read but not yet answered. It is idle — safe to
// poke with a read deadline, nothing lost if force-closed — only when
// parked with nothing pending. Under read-ahead two goroutines write the
// two, so idle is derived on demand, never stored.
type connState struct {
	park    atomic.Int32
	pending atomic.Int64
	// poisoned says a drain poke's deadline may still be armed on the
	// connection. Only its reader reads and writes it.
	poisoned bool
}

// Park states. A poke is two steps, claim then poison, so the reader
// can tell one in progress from one done.
const (
	running = iota // reading, handling, or between steps
	parked         // waiting for a next request's first byte
	poking         // claimed by a drain poke; deadline not yet poisoned
	poked          // read deadline poisoned
)

func (st *connState) idle() bool {
	return st.park.Load() != running && st.pending.Load() == 0
}

// poke wakes an idle connection for drain with a read deadline in the
// past.
func (st *connState) poke(conn net.Conn) {
	if st.pending.Load() == 0 && st.park.CompareAndSwap(parked, poking) {
		_ = conn.SetReadDeadline(time.Unix(1, 0))
		st.park.Store(poked)
	}
}

// unpark ends the reader's park and reports whether a poke claimed it.
// A poke in progress is waited out (it is one deadline call away), so a
// reader that goes on to read re-arms its deadline after the poison,
// never before.
func (st *connState) unpark() (wasPoked bool) {
	if st.park.CompareAndSwap(parked, running) {
		return false
	}
	for st.park.Load() != poked {
		runtime.Gosched()
	}
	st.park.Store(running)
	return true
}

// ServerOptions configure a Server.
type ServerOptions struct {
	// Handler, when non-nil, receives every request; the discard server
	// leaves it nil.
	Handler Handler
	// Respond makes the server answer every request (202 for discard,
	// 200 with the handler's body otherwise). Dummy-server benchmarking
	// leaves it false.
	Respond bool
	// Logger receives per-connection errors; nil disables logging.
	Logger *log.Logger
	// Metrics receives the server's counters. Nil gets a private
	// registry, so Requests/Bytes always work; pass a shared one to
	// export it (bsoap-server -metrics does).
	Metrics *ServerMetrics
	// MaxConns caps concurrently open connections. A connection accepted
	// beyond the cap is answered with an immediate 503 and closed — fast
	// rejection instead of an unbounded accept queue. 0 = unlimited.
	MaxConns int
	// MaxInFlight caps requests being handled at once across all
	// connections. A fully received request that cannot take a slot is
	// answered 503 without dispatching — the handler pool never queues
	// more work than it can bound. 0 = unlimited.
	MaxInFlight int
	// RequestTimeout bounds reading one request once its first byte has
	// arrived (idle keep-alive waits are not bounded). A read missing
	// the deadline closes the connection and counts a deadline hit.
	// 0 = no deadline.
	RequestTimeout time.Duration
	// ReadAhead enables server-side pipelining on handler connections: a
	// per-connection reader goroutine parses up to this many requests
	// ahead while earlier ones are being handled, and responses are still
	// written strictly in request order — pipelined and serial clients
	// are indistinguishable on the wire. 0 keeps the read→handle→respond
	// loop on one goroutine. Ignored when Handler is nil (the dummy
	// server has no handler latency to overlap).
	ReadAhead int
}

// Serve starts a server on ln; it returns immediately and serves until
// Close or Shutdown.
func Serve(ln net.Listener, opts ServerOptions) *Server {
	m := opts.Metrics
	if m == nil {
		m = NewServerMetrics()
	}
	s := &Server{
		ln: ln, handler: opts.Handler, respond: opts.Respond, logger: opts.Logger,
		metrics:   m,
		maxConns:  opts.MaxConns,
		reqTO:     opts.RequestTimeout,
		readAhead: opts.ReadAhead,
		conns:     make(map[net.Conn]*connState),
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	if s.handler == nil {
		s.readAhead = 0
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen starts a server on a fresh TCP listener on addr (use ":0" for
// an ephemeral port).
func Listen(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return Serve(ln, opts), nil
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Requests reports how many requests have been fully received.
func (s *Server) Requests() int64 { return s.metrics.c[cRequests].Load() }

// Bytes reports total body bytes received.
func (s *Server) Bytes() int64 { return s.metrics.c[cBytesIn].Load() }

// closeListener closes the listener exactly once (Shutdown followed by
// Close must not turn the second close into an error).
func (s *Server) closeListener() error {
	s.lnOnce.Do(func() { s.lnErr = s.ln.Close() })
	return s.lnErr
}

// Close is the hard stop: it stops accepting, force-closes every live
// connection — aborting any request currently being read or handled
// mid-flight, which its client sees as a connection error — and waits
// for connection goroutines to exit. Prefer Shutdown to let in-flight
// requests finish; Close is the escape hatch when draining is not an
// option (tests, emergency stop, or the force phase after a Shutdown
// deadline).
func (s *Server) Close() error {
	s.draining.Store(true)
	err := s.closeListener()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting, lets every
// request already in flight (being read, handled, or answered) complete,
// closes idle connections, and returns once all connection goroutines
// have exited. If ctx expires first, remaining connections are
// force-closed — each one aborting a request mid-flight is counted in
// the drain_aborted metric — and ctx.Err() is returned without waiting
// further: a handler wedged on something other than connection I/O
// (like net/http, Shutdown cannot interrupt it) keeps its goroutine
// until it eventually returns.
//
// A nil return means a clean drain: no request was aborted mid-flight,
// and every request that reached a connection before the connection
// fell idle was answered. A draining connection serves what already
// sits in its read buffer or its socket, and waits for more only while
// it still owes answers (a pipelining client may be mid-window); it is
// idle, and closes, once it owes none and nothing further has arrived.
// A request racing that moment finds the connection closed, unread.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.closeListener()
	// Wake connections parked with nothing owed (see connState.poke).
	// One parked while it still owes answers is woken by its responder,
	// after the last of them.
	s.mu.Lock()
	for c, st := range s.conns {
		st.poke(c)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c, st := range s.conns {
			if !st.idle() {
				s.metrics.c[cDrainAborted].Add(1)
			}
			c.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// track registers conn for shutdown, reporting false if the server is
// already closing.
func (s *Server) track(conn net.Conn, st *connState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[conn] = st
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.draining.Load() {
				s.logf("accept: %v", err)
			}
			return
		}
		if s.maxConns > 0 && s.numConns.Load() >= int64(s.maxConns) {
			// Fast rejection: tell the client the server is full rather
			// than letting connections queue unboundedly. The write is
			// deadline-bounded so a dead peer cannot stall the accept
			// loop.
			s.metrics.c[cRejectedConns].Add(1)
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			_ = WriteResponse(conn, 503, "", nil)
			conn.Close()
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			// A read-ahead connection's receive buffer holds the
			// ReadAhead requests it may have in flight, so a client's
			// depth-sized window does not stall on a full socket.
			_ = tc.SetNoDelay(true)
			_ = tc.SetReadBuffer(sockBufPerRequest * max(s.readAhead, 1))
			_ = tc.SetWriteBuffer(sockBufPerRequest)
		}
		s.numConns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.numConns.Add(-1)
	defer conn.Close()
	st := &connState{}
	if !s.track(conn, st) {
		return
	}
	s.metrics.connOpened()
	defer s.metrics.connClosed()
	defer s.untrack(conn)
	br := bufio.NewReaderSize(conn, 32*1024)
	// One Request per connection, reused across keep-alive messages:
	// handlers get storage that is recycled on the next read, and must
	// copy anything they keep (all in-tree handlers do).
	req := &Request{
		ConnID:     s.nextConn.Add(1),
		RemoteAddr: conn.RemoteAddr().String(),
	}
	if s.readAhead > 0 {
		s.serveAhead(conn, br, st, req)
		return
	}
	for s.nextRequest(conn, br, st, req) {
		ok := s.dispatch(conn, req)
		st.pending.Add(-1)
		if !ok {
			return
		}
	}
}

// nextRequest is the request-read step both schedulers run — on the
// connection goroutine, or on its reader goroutine under read-ahead:
// wait for a first byte unless one is buffered, arm the deadline, read
// into req, account. False means the connection has no further request
// to serve (clean close, drain, or an I/O failure, already recorded). A
// request the parser refuses is recorded as a read error too, but
// returned, marked refused, and is the connection's last: nothing after
// it can be framed. It is answered by whoever answers the connection,
// after every answer owed before it, so the reader never writes.
func (s *Server) nextRequest(conn net.Conn, br *bufio.Reader, st *connState, req *Request) bool {
	if br.Buffered() == 0 && !s.await(conn, br, st) {
		return false
	}
	// A request has begun: arm its deadline, which also lifts a drain
	// poke that lost the race to it (await waited the poke out). Without
	// a RequestTimeout no deadline is armed but a poke's, so only that
	// one is cleared.
	if s.reqTO > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.reqTO))
	} else if st.poisoned {
		_ = conn.SetReadDeadline(time.Time{})
	}
	st.poisoned = false
	if err := ReadRequestInto(br, req); err != nil {
		if !errors.Is(err, errConnClosed) && !s.draining.Load() {
			s.metrics.recordReadError(err)
			s.logf("read request: %v", err)
		}
		if req.refused = refused(err); !req.refused {
			return false
		}
		st.pending.Add(1)
		return true
	}
	if s.reqTO > 0 {
		// The request is fully read; its deadline must not outlive it
		// into the next keep-alive wait.
		_ = conn.SetReadDeadline(time.Time{})
	}
	s.metrics.recordRequest(len(req.Body))
	req.recvNs = time.Now().UnixNano()
	st.pending.Add(1)
	return true
}

// refused reports whether a failed request read is the parser refusing
// the request rather than the connection failing under it. The parser
// wraps every I/O error it meets, and those are net.Errors (deadlines,
// resets, a closed conn) or EOFs.
func refused(err error) bool {
	var ne net.Error
	return !errors.As(err, &ne) && !errors.Is(err, io.EOF) &&
		!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errConnClosed)
}

// await parks until a next request's first byte arrives. Drain wakes a
// parked connection that owes no answers (connState.poke). A draining
// connection parks only while it owes answers or has a request in its
// socket already (which the park then returns at once); otherwise it
// ends here.
func (s *Server) await(conn net.Conn, br *bufio.Reader, st *connState) bool {
	st.park.Store(parked)
	if s.draining.Load() && st.pending.Load() == 0 && !arrived(conn) {
		return false
	}
	_, err := br.Peek(1)
	if st.unpark() {
		// The drain found the connection idle, and err may be its
		// poisoned deadline. A request that arrived meanwhile is still
		// served: nextRequest re-arms the deadline before reading it.
		st.poisoned = true
		return br.Buffered() > 0 || arrived(conn)
	}
	if err != nil {
		// EOF is a clean close between requests, and during drain the
		// error is Close's, not a peer failure.
		if !errors.Is(err, io.EOF) && !s.draining.Load() {
			s.metrics.recordReadError(err)
			s.logf("await request: %v", err)
		}
		return false
	}
	return true
}

// dispatch admits, handles and answers one fully received request. It
// returns false when the connection is no longer usable (a response
// write failed); admission sheds and handler errors are answered on the
// wire and keep the connection alive. Every answer, whatever its status,
// leaves in one Write from req's response buffer (reply).
func (s *Server) dispatch(conn net.Conn, req *Request) bool {
	if req.refused {
		// The stream cannot be framed past a refused request: say so,
		// unless this server answers nothing, and close.
		if s.handler != nil || s.respond {
			s.reply(conn, req, 400, "", []byte("Connection: close\r\n"), nil)
		}
		linger(conn)
		return false
	}
	if s.handler == nil {
		// Dummy server: the body has been drained; optionally ack.
		return !s.respond || s.reply(conn, req, 202, "", nil, nil)
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default:
			// Over the in-flight cap: shed this request now instead of
			// queueing it behind work we cannot bound.
			s.metrics.c[cRejectedRequests].Add(1)
			return s.reply(conn, req, 503, "", nil, nil)
		}
	}
	// Latency attribution: time from fully-received to dispatched is the
	// server-queue stage (read-ahead queueing plus admission). The stage
	// events carry the client's propagated span so the inspector can
	// merge them into the client's timeline.
	now := time.Now().UnixNano()
	if req.recvNs > 0 {
		qns := now - req.recvNs
		s.metrics.Stages.Observe(trace.StageServerQueue, qns, req.TraceSpan)
	}
	s.metrics.c[cInFlight].Add(1)
	req.beginResponse()
	body, err := s.handler(req)
	s.metrics.c[cInFlight].Add(-1)
	if s.inflight != nil {
		<-s.inflight
	}
	if err != nil {
		if errors.Is(err, wire.ErrDeltaResync) {
			// A patch could not be applied (unknown base, epoch skew,
			// checksum failure): answer 409 with the resync header. The
			// request was fully read and the failure is a protocol state
			// mismatch, not a connection fault, so keep-alive continues and
			// the client's full-body resend arrives on this connection.
			// The handler that refused the patch counts it
			// (ServerMetrics.RecordDeltaResync), not the transport.
			return s.reply(conn, req, 409, "", deltaResyncExtra, nil)
		}
		s.logf("handler: %v", err)
		msg := append(req.out[respHeaderBytes:respHeaderBytes], err.Error()...)
		return s.reply(conn, req, 500, "text/plain", nil, msg)
	}
	ok := true
	if s.respond || body != nil {
		// A handler that stored a patch base asks for it to be
		// acknowledged; the ack is what flips the client delta-capable.
		var extra []byte
		var ackBuf [64]byte
		if req.DeltaAck {
			b := append(ackBuf[:0], "X-BSoap-Delta: "...)
			b = wire.AppendDeltaAck(b, req.DeltaAckTID, req.DeltaAckEpoch)
			extra = append(b, '\r', '\n')
		}
		wstart := time.Now()
		ok = s.reply(conn, req, 200, "text/xml; charset=utf-8", extra, body)
		wns := time.Since(wstart).Nanoseconds()
		s.metrics.Stages.Observe(trace.StageWrite, wns, req.TraceSpan)
	}
	if req.TraceSpan != 0 && req.recvNs > 0 {
		// Feed the slow ring with the server's view of the call
		// (queue + handle + write).
		trace.ObserveCall(req.TraceSpan, time.Now().UnixNano()-req.recvNs)
	}
	return ok
}

// A refused connection's unread input is discarded up to lingerBytes or
// for lingerTimeout, whichever ends first; Shutdown waits no longer.
const (
	lingerBytes   = 4 << 20
	lingerTimeout = 500 * time.Millisecond
)

// linger half-closes a refused connection and discards what its client
// is still sending before the connection is closed. A socket closed with
// unread input answers with a reset, which fails the client's body write
// and may discard the 400 before the client reads it; after the
// half-close the client reads the answer and then EOF.
func linger(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok || tc.CloseWrite() != nil {
		return
	}
	_ = tc.SetReadDeadline(time.Now().Add(lingerTimeout))
	_, _ = io.CopyN(io.Discard, tc, lingerBytes)
}

// reply writes req's response in one Write from req's own buffer
// (Request.respond). False means the connection is no longer usable.
func (s *Server) reply(conn net.Conn, req *Request, status int, contentType string, extra, body []byte) bool {
	if err := req.respond(conn, status, contentType, extra, body); err != nil {
		s.logf("write response: %v", err)
		return false
	}
	return true
}

// serveAhead is the ReadAhead > 0 scheduler: a reader goroutine runs the
// request-read step ahead into a bounded queue while this goroutine
// handles and answers strictly in order. A ring of ReadAhead+1 Request
// objects cycles between the two, so the handler's request is untouched
// while later ones parse — the next-read-invalidates contract holds
// because a Request re-enters the free list only after its handler has
// returned and its response, one Write from the Request's own buffer, is
// written.
func (s *Server) serveAhead(conn net.Conn, br *bufio.Reader, st *connState, first *Request) {
	free := make(chan *Request, s.readAhead+1)
	free <- first
	for i := 0; i < s.readAhead; i++ {
		free <- &Request{ConnID: first.ConnID, RemoteAddr: first.RemoteAddr}
	}
	parsed := make(chan *Request, s.readAhead)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(parsed)
		for {
			req := <-free
			if !s.nextRequest(conn, br, st, req) {
				return
			}
			parsed <- req
			if req.refused {
				return
			}
		}
	}()

	ok := true
	for req := range parsed {
		if ok {
			if ok = s.dispatch(conn, req); !ok {
				// Responses cannot be written: kill the connection so the
				// reader unblocks and winds the queue down. Remaining
				// parsed requests drain unanswered — their client already
				// lost the connection.
				conn.Close()
			}
		}
		st.pending.Add(-1)
		free <- req
		if s.draining.Load() {
			// A draining reader parks while answers are owed; once the
			// last is written, wake it so both goroutines wind down.
			st.poke(conn)
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}
