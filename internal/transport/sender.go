package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/trace"
	"bsoap/internal/wire"
)

// SenderOptions configure a Sender.
type SenderOptions struct {
	// Target is the request target path (default "/").
	Target string
	// Host is the Host header value (default the connection's remote
	// address).
	Host string
	// ExpectResponse makes the bare sends (Send, EndStream) wait for
	// their response: each queues at depth 1 on the sender's own Pending
	// and waits on it. Without it a bare send only writes and the sender
	// never reads — the paper's Send Time measurements do not wait for
	// responses; RPC-style examples do.
	// Submit always queues its request for a response, whatever this
	// says.
	ExpectResponse bool
	// Dialer overrides the TCP dial used by Dial and Redial (fault
	// injection, tests, alternative transports). nil selects the default
	// dialer with the paper's socket options.
	Dialer func(network, addr string) (net.Conn, error)
	// WriteTimeout bounds the socket writes of one Send/stream operation,
	// so a peer that stops draining cannot stall a pooled sender forever:
	// a stalled write fails no sooner than WriteTimeout after its
	// operation starts, and at most WriteTimeout/16 later. (The deadline
	// is re-armed, at WriteTimeout + WriteTimeout/16, only when less than
	// WriteTimeout of it is left.) Zero disables the deadline.
	WriteTimeout time.Duration
	// ReadTimeout bounds each response read the same way: a stalled read
	// fails no sooner than ReadTimeout after it starts, and at most
	// ReadTimeout/16 later. Zero disables.
	ReadTimeout time.Duration
	// Delta turns on differential-transmission negotiation for
	// annotated Submits: a sync-annotated body carries an X-BSoap-Delta
	// sync header, every response read notes what the peer acknowledged,
	// and DeltaEpoch reports it, so the pool sends warm calls whose
	// template the server holds as compact patch frames. Off, a sync
	// annotation is written as a plain request and DeltaEpoch never
	// reports capable, so no patch is encoded. The bare sends carry no
	// annotation either way.
	Delta bool
	// Depth bounds the requests Submit keeps on the wire before the
	// first of their responses is read (HTTP/1.1 pipelining); values
	// below 1 mean 1. A Depth that is set also raises a bare TCP
	// connection's send buffer to Depth requests' worth, at construction
	// and after every Redial, so a full window fits in the socket and
	// Submit does not block in write before the depth bound does. Zero
	// leaves the socket as dialed.
	Depth int
}

// Sender frames serialized messages as HTTP POSTs over one persistent
// connection, and is that connection's depth-bounded pipeline: up to
// Depth requests ride it before the first response is read, and
// responses resolve their Pendings strictly in submission order (HTTP/1.x
// responses carry no request id — FIFO is the protocol's matching rule).
// It implements the engine's Sink (vectored complete sends) and
// StreamSink (chunked streaming for overlay).
//
// A Sender runs on its callers' goroutines only. A write happens on the
// submitter's, under writeMu: the engine's scatter-gather buffers point
// straight into template chunks that are only stable while the caller
// holds its template replica, so handing them to another goroutine would
// force a copy on every send. A response is read by whoever needs one —
// a Pending.Wait, or a Submit at depth — one at a time, at one place
// (readOldest). A bare send that expects a response is such a waiter at
// depth 1. Acquisition order under writeMu equals wire order equals
// completion order.
//
// Failure semantics: the first write or read error (and Close) breaks
// the sender. Every Pending already submitted resolves with the response
// it got or with the sticky error; later submits fail immediately until
// Redial. A non-2xx response fails only its own Pending — the response
// was fully read, so the connection stays usable.
//
// Submit, Pending.Wait, InFlight, Broken, DeltaEpoch and Close are safe
// for concurrent use. The bare sends, the stream calls and Redial belong
// to one goroutine at a time (the pool's slot owner).
type Sender struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	opts SenderOptions

	// writeBy and readBy are the deadlines last armed on conn (zero:
	// none): armWrite's under writeMu or the owner, armRead's by the one
	// reader.
	writeBy, readBy time.Time

	// addr is the dial target, recorded by Dial; empty for senders
	// wrapped around an externally established connection, which
	// therefore cannot Redial.
	addr   string
	closed atomic.Bool

	// TraceSpan attributes this sender's write-side flight-recorder
	// events (redial, write deadline hits) to the call in progress, is
	// recorded on each Pending it submits (whose response read is
	// attributed to it), and is propagated to the server as the
	// X-BSoap-Trace request header so server-side events join the same
	// span. The pool sets it before each call; zero records the events
	// unattributed and writes no header. Written only by the sender's
	// owner, before a send.
	TraceSpan uint64

	// OnStall, when set, is invoked each time a Submit must wait for
	// in-flight responses because the sender is at depth. OnComplete is
	// invoked exactly once per Pending as it resolves (success, error, or
	// breakage). Both must be set before the first Submit, must be safe
	// for concurrent use, and run with the sender's state locked, so
	// they must not call back into it.
	OnStall    func()
	OnComplete func()

	// traceBuf is the persistent scratch the X-BSoap-Trace header is
	// rendered into: a field (not a stack array) so handing it to the
	// buffered writer does not force a per-send heap allocation.
	traceBuf [40]byte

	// head is the static request head (request line through SOAPAction),
	// rendered once at construction so steady-state sends write it
	// without building strings.
	head []byte

	// lenBuf is persistent scratch for the per-send variable header
	// lines (Content-Length, chunk sizes), for the same reason as
	// traceBuf.
	lenBuf [80]byte

	streaming bool

	// deltaHdrBuf is the persistent scratch the X-BSoap-Delta request
	// header is rendered into, for the same reason as traceBuf.
	deltaHdrBuf [64]byte

	// writeMu serializes Submits — depth check, write and queue push —
	// so the queue's order is exactly the wire's. It is taken before mu.
	writeMu sync.Mutex

	// mu guards the fields below and every Pending's outcome; cond is
	// broadcast whenever a read lands or the sender breaks.
	mu    sync.Mutex
	cond  sync.Cond
	queue []*Pending // unanswered requests in wire order; cap is the depth
	// reading is set while one goroutine reads a response with mu
	// released; resp is its parse state (next read invalidates).
	reading bool
	resp    Response
	err     error // sticky: the first failure
	// delta is what the peer is believed to hold for differential
	// transmission: noted at write time, updated by every response read.
	delta deltaState
	// own is the place in the queue of a bare send that expects its
	// response.
	own Pending
}

// Annotation says what a request's body is to a delta-capable peer — the
// client half of Request.DeltaMode, DeltaTID and DeltaEpoch. The zero
// value is a plain request; DeltaSync offers the body as the patch base
// for template TID at Epoch; DeltaPatch is a frame bringing TID to Epoch.
type Annotation struct {
	Mode       DeltaMode
	TID, Epoch uint64
}

// Pending is the completion state of one queued request, filled in by
// Submit: it resolves once the request's response has been read off the
// connection, or once the sender breaks (every Pending resolves — a
// broken connection fails all of them rather than leaving any waiter
// blocked forever). The caller owns its storage, so it can live inside
// whatever tracks the call; once resolved it may be submitted again.
type Pending struct {
	s *Sender
	// span is the submitting call's TraceSpan: the read of this request's
	// response is attributed to it, whatever call the sender serves when
	// the read happens.
	span   uint64
	done   bool // guarded by s.mu, as are status and err
	status int
	err    error
}

// Wait blocks until the request's response has been read (or the sender
// broke) and returns the outcome: nil for a 2xx response, an error for a
// non-2xx status or a transport failure. The waiter does the reading:
// until its own response is in, it reads the oldest one outstanding, or
// waits while another goroutine does.
func (p *Pending) Wait() error {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for !p.done {
		s.readOldest()
	}
	return p.err
}

// deltaState tracks what the peer holds for delta transmission. It has
// no lock of its own: it is part of the Sender's state, under mu.
type deltaState struct {
	capable bool
	syncs   map[uint64]uint64 // template id -> synchronized epoch
}

// maxDeltaSyncs bounds the per-connection sync map against template-id
// churn; exceeding it clears the map wholesale (every template simply
// resynchronizes with one full send).
const maxDeltaSyncs = 256

// noteSync optimistically records that the peer will hold tid at epoch
// once the bytes now being written arrive. Sound because submits happen
// in wire order: any patch referencing this base is written after it.
func (d *deltaState) noteSync(tid, epoch uint64) {
	if d.syncs == nil {
		d.syncs = make(map[uint64]uint64, 8)
	} else if len(d.syncs) >= maxDeltaSyncs {
		if _, exists := d.syncs[tid]; !exists {
			clear(d.syncs)
		}
	}
	d.syncs[tid] = epoch
}

// epoch reports the epoch the peer is believed synchronized at for tid.
func (d *deltaState) epoch(tid uint64) (uint64, bool) {
	if !d.capable {
		return 0, false
	}
	e, ok := d.syncs[tid]
	return e, ok
}

// reset drops all synchronization state (resync demand, redial).
// Capability survives a resync — the peer is still delta-capable, it
// just lost a base — but not a redial (fresh connection, fresh
// negotiation).
func (d *deltaState) reset(keepCapable bool) {
	d.capable = d.capable && keepCapable
	clear(d.syncs)
}

// NewSender wraps an established connection.
func NewSender(conn net.Conn, opts SenderOptions) *Sender {
	if opts.Target == "" {
		opts.Target = "/"
	}
	if opts.Host == "" {
		if conn.RemoteAddr() != nil {
			opts.Host = conn.RemoteAddr().String()
		} else {
			opts.Host = "bsoap"
		}
	}
	head := "POST " + opts.Target + " HTTP/1.1\r\n" +
		"Host: " + opts.Host + "\r\n" +
		"Content-Type: text/xml; charset=utf-8\r\n" +
		"SOAPAction: \"\"\r\n"
	s := &Sender{
		conn:  conn,
		bw:    bufio.NewWriterSize(conn, 32*1024),
		br:    bufio.NewReaderSize(conn, 32*1024),
		opts:  opts,
		head:  []byte(head),
		queue: make([]*Pending, 0, max(1, opts.Depth)),
	}
	s.cond.L = &s.mu
	s.sizeSendBuffer()
	return s
}

// Dial connects to addr over TCP with the socket options the paper sets
// (TCP_NODELAY, 32 KiB send and receive buffers, keep-alive) and returns
// a Sender. With opts.Dialer set, that dialer establishes the connection
// instead (and is reused by Redial).
func Dial(addr string, opts SenderOptions) (*Sender, error) {
	// Fresh dials happen before a sender is bound to any call, so the
	// event is unattributed (span 0) and ordered by time.
	conn, err := dialConn(addr, opts.Dialer, trace.KindDial, 0)
	if err != nil {
		return nil, err
	}
	s := NewSender(conn, opts)
	s.addr = addr
	return s, nil
}

// sockBufPerRequest is the paper's socket buffer size (32 KiB), which
// holds the one message a serial connection has in flight. A connection
// that carries several requests at once gets this much per request: a
// depth-d Sender's send buffer and a read-ahead-N server connection's
// receive buffer are d and N times it. Every setting is advisory — a
// connection still works, only slower, where the kernel refuses it.
const sockBufPerRequest = 32 * 1024

// sizeSendBuffer gives a bare TCP connection a send buffer of Depth
// requests, when Depth is set.
func (s *Sender) sizeSendBuffer() {
	if tc, ok := s.conn.(*net.TCPConn); ok && s.opts.Depth > 0 {
		_ = tc.SetWriteBuffer(s.opts.Depth * sockBufPerRequest)
	}
}

// DefaultDialer establishes one experiment-configured TCP connection:
// TCP_NODELAY, keep-alive, 32 KiB socket buffers, 10s dial timeout. It
// is the dial SenderOptions.Dialer overrides, exported so wrappers
// (fault injection) can keep the same socket configuration underneath.
func DefaultDialer(network, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Errors here are advisory: the experiment still runs without
		// the exact 2004 socket configuration.
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		_ = tc.SetWriteBuffer(sockBufPerRequest)
		_ = tc.SetReadBuffer(sockBufPerRequest)
	}
	return conn, nil
}

// dialConn dials addr through the given dialer (nil = DefaultDialer) and
// puts the attempt on the flight recorder as kind (dial or redial) under
// span.
func dialConn(addr string, dialer func(network, addr string) (net.Conn, error), kind trace.Kind, span uint64) (net.Conn, error) {
	if dialer == nil {
		dialer = DefaultDialer
	}
	start := time.Now()
	conn, err := dialer("tcp", addr)
	if trace.Enabled() {
		ok := int64(1)
		if err != nil {
			ok = 0
		}
		trace.Rec(span, kind, ok, time.Since(start).Nanoseconds(), 0)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return conn, nil
}

// errSenderClosed is the sticky error a Sender fails with when Close or
// Redial shuts it down rather than an I/O error: pendings still in
// flight (and any later Submit) resolve with it.
var errSenderClosed = fmt.Errorf("transport: sender closed")

// Close breaks the sender, closes the connection, resolves every
// unanswered Pending with an error, and returns once no goroutine reads
// or writes through it. It is idempotent and safe to call from several
// goroutines (one closes the connection), so pool cleanup paths may
// Close unconditionally. It must still not race Redial or a bare send.
func (s *Sender) Close() error {
	s.mu.Lock()
	s.breakLocked(errSenderClosed)
	s.mu.Unlock()
	var err error
	if s.closed.CompareAndSwap(false, true) {
		err = s.conn.Close() // fails a read or write in progress
	}
	s.writeMu.Lock() // a Submit mid-write has finished
	defer s.writeMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.reading {
		s.cond.Wait()
	}
	return err
}

// errNotDialed is returned by Redial on senders wrapped around an
// externally established connection (NewSender), which have no address
// to reconnect to.
var errNotDialed = fmt.Errorf("transport: sender was not created by Dial; cannot redial")

// Redial replaces a broken connection with a fresh one to the original
// Dial address. It winds the old one down first, as Close does — every
// unanswered Pending fails and any reader is waited out, since the
// buffered reader it reads through is reset here — then dials and
// resets all buffered I/O, stream and delta state. It is the
// health-check primitive connection pools use: on a send error, Redial
// and retry (the engine preserves dirty bits across failed sends, so
// the retried call re-serializes the same changes).
func (s *Sender) Redial() error {
	if s.addr == "" {
		return errNotDialed
	}
	_ = s.Close()
	conn, err := dialConn(s.addr, s.opts.Dialer, trace.KindRedial, s.TraceSpan)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn = conn
	s.writeBy, s.readBy = time.Time{}, time.Time{}
	s.bw.Reset(conn)
	s.br.Reset(conn)
	s.streaming = false
	s.err = nil
	// A fresh connection negotiates delta from scratch: nothing the old
	// peer connection held can be assumed synchronized.
	s.delta.reset(false)
	s.sizeSendBuffer()
	s.closed.Store(false)
	return nil
}

// Broken reports whether the sender has failed or been closed; Redial
// repairs it.
func (s *Sender) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

// InFlight reports how many requests are currently on the wire awaiting
// their response (approximate under concurrency).
func (s *Sender) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// deadlineSlack sets how far past its timeout a deadline is armed: by
// timeout/deadlineSlack. The deadline then stands for that long across
// operations, so a sender calls into the runtime's timers once per
// timeout/deadlineSlack instead of once per operation.
const deadlineSlack = 16

// rearm reports whether the deadline last armed, *by, lies less than
// timeout ahead of now, and if so moves it to timeout + timeout/
// deadlineSlack from now. An operation that starts when rearm says no
// still has at least timeout left, so it fails no sooner than timeout
// and at most timeout/deadlineSlack later.
func rearm(by *time.Time, timeout time.Duration) bool {
	now := time.Now()
	if by.Sub(now) >= timeout {
		return false
	}
	*by = now.Add(timeout + timeout/deadlineSlack)
	return true
}

// armWrite arms the write deadline for an operation (no-op when
// WriteTimeout is zero), when the one armed last is due (rearm). Errors
// are ignored: on a dead connection the write that follows surfaces the
// failure with better context.
func (s *Sender) armWrite() {
	if s.opts.WriteTimeout > 0 && rearm(&s.writeBy, s.opts.WriteTimeout) {
		_ = s.conn.SetWriteDeadline(s.writeBy)
	}
}

// armRead arms the read deadline for a response read the same way.
func (s *Sender) armRead() {
	if s.opts.ReadTimeout > 0 && rearm(&s.readBy, s.opts.ReadTimeout) {
		_ = s.conn.SetReadDeadline(s.readBy)
	}
}

// noteIOErr records a flight-recorder deadline event under span when err
// is a socket timeout, returning err unchanged so call sites can keep
// wrapping it.
func noteIOErr(err error, read bool, span uint64) error {
	if err == nil {
		return nil
	}
	if trace.Enabled() {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			rw := int64(0)
			if read {
				rw = 1
			}
			trace.Rec(span, trace.KindDeadline, rw, 0, 0)
		}
	}
	return err
}

// writeRequestHead writes the request line and common headers, leaving
// body framing to the caller. It is the one place the X-BSoap-Delta
// request header is rendered and the sync it announces is noted.
func (s *Sender) writeRequestHead(an Annotation) error {
	if _, err := s.bw.Write(s.head); err != nil {
		return err
	}
	if s.TraceSpan != 0 {
		b := append(s.traceBuf[:0], traceHeaderPrefix...)
		b = strconv.AppendUint(b, s.TraceSpan, 16)
		b = append(b, '\r', '\n')
		if _, err := s.bw.Write(b); err != nil {
			return err
		}
	}
	// A patch frame is only ever handed over after DeltaEpoch answered,
	// which needs Delta on; a sync offer with Delta off is a plain send.
	if an.Mode == DeltaPatch || an.Mode == DeltaSync && s.opts.Delta {
		b := append(s.deltaHdrBuf[:0], deltaHeaderPrefix...)
		if an.Mode == DeltaPatch {
			b = append(b, wire.DeltaValPatch...)
		} else {
			b = wire.AppendDeltaSync(b, an.TID, an.Epoch)
		}
		b = append(b, '\r', '\n')
		// Noted optimistically at write time: requests reach the peer in
		// the order written, so any later patch against this base arrives
		// after it; if the write fails, redial/resync recovery clears it.
		s.mu.Lock()
		s.delta.noteSync(an.TID, an.Epoch)
		s.mu.Unlock()
		if _, err := s.bw.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// traceHeaderPrefix starts the span-propagation header; the value is
// the client's span id in lowercase hex. Servers parse it, by its
// lowercased name, into Request.TraceSpan.
const (
	traceHeaderPrefix = "X-BSoap-Trace: "
	traceHeaderKey    = "x-bsoap-trace"
)

// Submit is the one way a complete message is queued on this connection:
// bufs framed as one POST with Content-Length, annotated per an, and
// flushed, and p resolves when its in-order response has been read. The
// vector is written segment by segment straight out of the template
// chunks (scatter-gather), on the caller's goroutine (see the type
// comment); when Depth requests are already in flight, Submit first
// reads responses until a place is free, reporting the stall through
// OnStall. A write error breaks the sender and is returned directly — p
// is not queued for a request that never got onto the wire. A refused
// patch resolves p with wire.ErrDeltaResync and leaves the sender
// healthy, so the caller can resubmit in full.
func (s *Sender) Submit(p *Pending, bufs net.Buffers, an Annotation) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	err := s.room()
	if err == nil {
		err = s.writeRequest(bufs, an) // readers touch the read half only
	}
	return s.enqueue(p, err)
}

// room holds a Submit, which holds writeMu, at the depth bound: while
// Depth requests are in flight it reads the oldest response. It returns
// the sticky error of a broken sender.
func (s *Sender) room() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	full := func() bool { return s.err == nil && len(s.queue) == cap(s.queue) }
	if full() && s.OnStall != nil {
		s.OnStall()
	}
	for full() { // holding writeMu, nothing else queues: the count only falls
		s.readOldest()
	}
	return s.err
}

// enqueue queues p for the request just written, for a caller holding
// writeMu; err is how the write went, and a failed one breaks the
// sender instead.
func (s *Sender) enqueue(p *Pending, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.breakLocked(err)
		return err
	}
	*p = Pending{s: s, span: s.TraceSpan}
	s.queue = append(s.queue, p)
	if s.err != nil {
		// Broken (by a failed read or Close) while the request was being
		// written: nobody will read its response.
		s.breakLocked(s.err)
	}
	return nil
}

// Send implements the engine's Sink: a bare complete send, unannotated
// (a delta request is always a Submit). It is a write alone, or with
// ExpectResponse a Submit at depth 1 on the sender's own Pending and a
// wait for its response.
func (s *Sender) Send(bufs net.Buffers) error {
	if !s.opts.ExpectResponse {
		return s.writeRequest(bufs, Annotation{})
	}
	if err := s.Submit(&s.own, bufs, Annotation{}); err != nil {
		return err
	}
	return s.own.Wait()
}

// writeRequest frames bufs as one POST and flushes it without touching
// the response side of the connection. The caller owns reading (or not
// reading) the response.
func (s *Sender) writeRequest(bufs net.Buffers, an Annotation) error {
	s.armWrite()
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if err := s.writeRequestHead(an); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	b := append(s.lenBuf[:0], "Content-Length: "...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	if _, err := s.bw.Write(b); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	for _, b := range bufs {
		if _, err := s.bw.Write(b); err != nil {
			return fmt.Errorf("transport: send body: %w", noteIOErr(err, false, s.TraceSpan))
		}
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush: %w", noteIOErr(err, false, s.TraceSpan))
	}
	return nil
}

// BeginStream starts a chunked-transfer POST.
func (s *Sender) BeginStream() error {
	if s.streaming {
		return fmt.Errorf("transport: BeginStream during active stream")
	}
	s.armWrite()
	if err := s.writeRequestHead(Annotation{}); err != nil {
		return fmt.Errorf("transport: begin stream: %w", err)
	}
	if _, err := s.bw.WriteString("Transfer-Encoding: chunked\r\n\r\n"); err != nil {
		return fmt.Errorf("transport: begin stream: %w", err)
	}
	s.streaming = true
	return nil
}

// StreamChunk emits one transfer-encoding chunk and flushes it, so the
// bytes leave as soon as they are serialized (the paper's streaming).
func (s *Sender) StreamChunk(p []byte) error {
	if !s.streaming {
		return fmt.Errorf("transport: StreamChunk outside a stream")
	}
	if len(p) == 0 {
		return nil // a zero-length chunk would terminate the body
	}
	s.armWrite()
	b := strconv.AppendInt(s.lenBuf[:0], int64(len(p)), 16)
	b = append(b, '\r', '\n')
	if _, err := s.bw.Write(b); err != nil {
		return fmt.Errorf("transport: chunk head: %w", err)
	}
	if _, err := s.bw.Write(p); err != nil {
		return fmt.Errorf("transport: chunk data: %w", err)
	}
	if _, err := s.bw.WriteString("\r\n"); err != nil {
		return fmt.Errorf("transport: chunk tail: %w", err)
	}
	return noteIOErr(s.bw.Flush(), false, s.TraceSpan)
}

// EndStream terminates the chunked body; with ExpectResponse the stream
// is then queued on the sender's own Pending, as a bare send is, and
// its response waited for.
func (s *Sender) EndStream() error {
	if !s.streaming {
		return fmt.Errorf("transport: EndStream outside a stream")
	}
	s.streaming = false
	s.armWrite()
	_, err := s.bw.WriteString("0\r\n\r\n")
	if err != nil {
		err = fmt.Errorf("transport: end stream: %w", err)
	} else if err = s.bw.Flush(); err != nil {
		err = fmt.Errorf("transport: end stream flush: %w", noteIOErr(err, false, s.TraceSpan))
	}
	if !s.opts.ExpectResponse {
		return err
	}
	s.writeMu.Lock()
	err = s.enqueue(&s.own, err)
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	return s.own.Wait()
}

// readOldest is one step of a wait, for a caller holding mu, and the
// one place a Sender reads a response: it waits for the read in progress
// to land, or reads the oldest outstanding response itself, with mu
// released, and resolves that request. A read error breaks the sender —
// every request behind the lost response is undeliverable too.
func (s *Sender) readOldest() {
	if s.reading {
		s.cond.Wait()
		return
	}
	s.reading = true
	span := s.queue[0].span
	s.mu.Unlock()
	s.armRead()
	err := noteIOErr(ReadResponseInto(s.br, &s.resp), true, span)
	s.mu.Lock()
	s.reading = false
	switch {
	case s.err != nil:
		// Broken while the read was out, which resolved the queue.
	case err != nil:
		s.breakLocked(fmt.Errorf("transport: read response: %w", err))
	default:
		p := s.queue[0]
		s.queue = append(s.queue[:0], s.queue[1:]...)
		// A non-2xx (a refused patch included) fails only this request:
		// the response was fully read and the connection is healthy.
		s.resolve(p, s.resp.Status, s.classify(&s.resp))
	}
	s.cond.Broadcast()
}

// breakLocked records the first failure (later ones lose) and resolves
// every queued request with it. Called with mu held.
func (s *Sender) breakLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	for _, p := range s.queue {
		s.resolve(p, 0, s.err)
	}
	s.queue = s.queue[:0]
	s.cond.Broadcast()
}

// resolve counts first, then publishes: whoever Wait releases must
// already see what OnComplete accounted (the pool's futures_pending
// gauge). Called with mu held.
func (s *Sender) resolve(p *Pending, status int, err error) {
	if s.OnComplete != nil {
		s.OnComplete()
	}
	p.status, p.err, p.done = status, err, true
}

// classify turns one fully read response into the request's outcome and
// folds it into the delta negotiation state. Called with mu held.
// Whatever it returns, the connection is healthy: the response was read
// whole.
func (s *Sender) classify(resp *Response) error {
	if resp.Status/100 != 2 {
		if s.opts.Delta && resp.Status == 409 && resp.Headers[wire.DeltaHeaderKey] == wire.DeltaValResync {
			// The peer rejected a patch: drop every assumed-synchronized
			// base and let the caller resend in full.
			s.delta.reset(true)
			return wire.ErrDeltaResync
		}
		return fmt.Errorf("transport: server returned %d", resp.Status)
	}
	if s.opts.Delta {
		if v, ok := resp.Headers[wire.DeltaHeaderKey]; ok {
			if _, _, oka := wire.ParseDeltaAck(v); oka {
				// The peer acknowledged storing a base: it is delta-capable.
				s.delta.capable = true
			}
		}
	}
	return nil
}

// deltaHeaderPrefix starts the differential-transmission negotiation
// header (request side).
const deltaHeaderPrefix = "X-BSoap-Delta: "

// DeltaEpoch reports the epoch the peer is believed synchronized at for
// template tid (ok=false until the peer has acknowledged delta
// capability, or when Delta is off): the pool's view of its peer's patch
// bases, which every response read keeps current.
func (s *Sender) DeltaEpoch(tid uint64) (uint64, bool) {
	if !s.opts.Delta {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delta.epoch(tid)
}

// crlf is the HTTP line terminator.
const crlf = "\r\n"

// DiscardSink is the in-process sink the benchmarks use by default: it
// consumes messages without network or copies beyond reading lengths, so
// measured time is pure serialization-side cost. It is safe for
// concurrent use.
type DiscardSink struct {
	bytes atomic.Int64
	sends atomic.Int64
}

// NewDiscardSink returns a fresh sink.
func NewDiscardSink() *DiscardSink { return &DiscardSink{} }

// Send implements the engine's Sink.
func (d *DiscardSink) Send(bufs net.Buffers) error {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	d.bytes.Add(int64(n))
	d.sends.Add(1)
	return nil
}

// BeginStream implements StreamSink.
func (d *DiscardSink) BeginStream() error { return nil }

// StreamChunk implements StreamSink.
func (d *DiscardSink) StreamChunk(p []byte) error {
	d.bytes.Add(int64(len(p)))
	return nil
}

// EndStream implements StreamSink.
func (d *DiscardSink) EndStream() error {
	d.sends.Add(1)
	return nil
}

// Bytes reports the total bytes consumed.
func (d *DiscardSink) Bytes() int64 { return d.bytes.Load() }

// Sends reports the number of messages consumed.
func (d *DiscardSink) Sends() int64 { return d.sends.Load() }

// DeltaDiscardSink is DiscardSink's delta-capable counterpart: an
// in-process sink acting as an always-capable, never-evicting peer. It
// lets benchmarks and alloc gates exercise the client's full delta
// encode path (eligibility, region walk, checksum, frame assembly)
// without a network. Safe for concurrent use.
type DeltaDiscardSink struct {
	DiscardSink
	mu         sync.Mutex
	syncs      map[uint64]uint64
	deltaSends atomic.Int64
}

// NewDeltaDiscardSink returns a fresh delta-capable discard sink.
func NewDeltaDiscardSink() *DeltaDiscardSink {
	return &DeltaDiscardSink{syncs: make(map[uint64]uint64, 8)}
}

// DeltaEpoch implements core.DeltaSink.
func (d *DeltaDiscardSink) DeltaEpoch(tid uint64) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.syncs[tid]
	return e, ok
}

// SendFull implements core.DeltaSink.
func (d *DeltaDiscardSink) SendFull(bufs net.Buffers, tid, epoch uint64) error {
	d.mu.Lock()
	d.syncs[tid] = epoch
	d.mu.Unlock()
	return d.Send(bufs)
}

// SendDelta implements core.DeltaSink.
func (d *DeltaDiscardSink) SendDelta(bufs net.Buffers, tid, newEpoch uint64) error {
	d.deltaSends.Add(1)
	return d.SendFull(bufs, tid, newEpoch)
}

// DeltaSends reports patch-frame sends consumed.
func (d *DeltaDiscardSink) DeltaSends() int64 { return d.deltaSends.Load() }

// WriterSink adapts any io.Writer into a Sink/StreamSink (tests, files).
type WriterSink struct{ W io.Writer }

// Send implements Sink.
func (w WriterSink) Send(bufs net.Buffers) error {
	for _, b := range bufs {
		if _, err := w.W.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// BeginStream implements StreamSink.
func (w WriterSink) BeginStream() error { return nil }

// StreamChunk implements StreamSink.
func (w WriterSink) StreamChunk(p []byte) error {
	_, err := w.W.Write(p)
	return err
}

// EndStream implements StreamSink.
func (w WriterSink) EndStream() error { return nil }
