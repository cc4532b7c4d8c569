package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bsoap/internal/transport"
)

// tracer records spans at the four seams the stack exposes without
// touching the program under test: the worker loop (mutate, call), the
// client's connections (client_io), the server's connections
// (server_io) and the server's handler (handle). The seams only log
// timestamps and byte offsets; assemble joins them into per-call spans
// once the pass is over.
//
// The join parses nothing (the client side only recognises a request's
// first write). A connection carries requests and responses in order, so the k-th request a client connection wrote is
// the k-th the server's side of it handled; and both sides count the
// bytes of each direction, so "the read that delivered request k's
// first byte" and "the read that delivered response k's last byte" are
// found by offset.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	// current[w] is the id of the call worker w is making; claimed[w] is
	// the last of them a connection has seen the request of.
	current []atomic.Uint64
	claimMu sync.Mutex
	claimed []uint64
	// goroutines maps a worker goroutine to its index, for claim.
	goroutines sync.Map

	mu      sync.Mutex
	clients []*traceConn
	servers map[string]*traceConn // by the client's address
	// logs holds the connections' logs, sized for a pass of logFor.
	logs   arena
	logFor time.Duration
}

func newTracer(workers int, dur time.Duration) *tracer {
	return &tracer{epoch: time.Now(), current: make([]atomic.Uint64, workers), claimed: make([]uint64, workers),
		servers: map[string]*traceConn{}, logFor: dur}
}

// connLog returns an empty off-heap log for one connection.
func connLog[T any](tr *tracer) []T { return offHeap[T](&tr.logs, recordsFor(tr.logFor, maxEventRate)) }

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }
func (tr *tracer) now() int64              { return int64(time.Since(tr.epoch)) }

// callSpan is the worker's own record of one call: mutate ran
// mutate→start, the call start→end (ns since the tracer's epoch).
type callSpan struct {
	id                 uint64
	mutate, start, end int64
}

// ioEvent is one Read or Write on a traced connection: when it
// returned and how many bytes the direction had carried by then.
type ioEvent struct{ t, off int64 }

// requestMark is the first write of one call's request: when it began
// and the write offset it began at.
type requestMark struct {
	id     uint64
	t, off int64
}

type interval struct{ start, end int64 }

// traceConn logs one connection's reads and writes. Each direction is
// used by one goroutine at a time (the pool's slot owner or the
// pipeline's reader; the server's reader or its dispatcher), so the
// logs need no lock; assemble reads them after both ends are closed.
type traceConn struct {
	net.Conn
	tr             *tracer
	server         bool
	clientAddr     string
	readOff, wrOff int64
	reads          []ioEvent
	writes         []ioEvent     // server side
	handles        []interval    // server side
	requests       []requestMark // client side
}

func (c *traceConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.readOff += int64(n)
	if n > 0 && c.tr.on.Load() {
		c.reads = append(c.reads, ioEvent{c.tr.now(), c.readOff})
	}
	return n, err
}

// requestStart is how every request the Sender writes begins. The
// Sender flushes at the end of a request, so the first Write of the
// next one starts with its request line.
var requestStart = []byte("POST ")

func (c *traceConn) Write(p []byte) (int, error) {
	on := c.tr.on.Load()
	if on && !c.server && bytes.HasPrefix(p, requestStart) {
		c.requests = append(c.requests, requestMark{c.tr.claim(), c.tr.now(), c.wrOff})
	}
	n, err := c.Conn.Write(p)
	c.wrOff += int64(n)
	if on && c.server {
		c.writes = append(c.writes, ioEvent{c.tr.now(), c.wrOff})
	}
	return n, err
}

// claim returns the id of the call whose request the calling goroutine
// is starting to write. A pooled connection serves whichever worker
// checked it out, so with two workers it has to work out who is writing:
// the writer announced its call before making it and no connection has
// seen that call's request yet, so when only one worker has such an
// unclaimed call, it is the writer. When both have, the goroutine's id
// decides — exact too, but three orders of magnitude dearer.
func (tr *tracer) claim() uint64 {
	if len(tr.current) == 1 {
		return tr.current[0].Load()
	}
	tr.claimMu.Lock()
	defer tr.claimMu.Unlock()
	writer, unclaimed := 0, 0
	for w := range tr.current {
		if tr.current[w].Load() != tr.claimed[w] {
			writer = w
			unclaimed++
		}
	}
	if unclaimed != 1 {
		if w, ok := tr.goroutines.Load(goroutineID()); ok {
			writer = w.(int)
		}
	}
	tr.claimed[writer] = tr.current[writer].Load()
	return tr.claimed[writer]
}

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 123 [running]:"); the runtime offers no other way to tell
// two workers apart from inside a net.Conn. It costs about 10 µs.
func goroutineID() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// wrapDialer traces the client's connections, outermost, so a
// throttled link's waits fall inside client_io.
func (tr *tracer) wrapDialer(dial func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		conn, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		tr.mu.Lock()
		c := &traceConn{Conn: conn, tr: tr, clientAddr: conn.LocalAddr().String(),
			reads: connLog[ioEvent](tr), requests: connLog[requestMark](tr)}
		tr.clients = append(tr.clients, c)
		tr.mu.Unlock()
		return c, nil
	}
}

type traceListener struct {
	net.Listener
	tr *tracer
}

// Accept applies the socket options transport.Server sets on the TCP
// connections it accepts — it cannot reach them through the wrapper —
// so the traced and untraced passes run on the same sockets.
func (l traceListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetReadBuffer(32 * 1024)
		_ = tc.SetWriteBuffer(32 * 1024)
	}
	l.tr.mu.Lock()
	c := &traceConn{Conn: conn, tr: l.tr, server: true, clientAddr: conn.RemoteAddr().String(),
		reads: connLog[ioEvent](l.tr), writes: connLog[ioEvent](l.tr), handles: connLog[interval](l.tr)}
	l.tr.servers[c.clientAddr] = c
	l.tr.mu.Unlock()
	return c, nil
}

func (tr *tracer) wrapListener(ln net.Listener) net.Listener { return traceListener{ln, tr} }

// wrapHandler times the server's handler per request.
func (tr *tracer) wrapHandler(h transport.Handler) transport.Handler {
	return func(req *transport.Request) ([]byte, error) {
		if !tr.on.Load() {
			return h(req)
		}
		t0 := tr.now()
		body, err := h(req)
		t1 := tr.now()
		tr.mu.Lock()
		c := tr.servers[req.RemoteAddr]
		tr.mu.Unlock()
		if c != nil {
			c.handles = append(c.handles, interval{t0, t1})
		}
		return body, err
	}
}

// tracedCall is one call's spans, nested call ⊃ client_io ⊃ server_io ⊃
// handle, with mutate beside them.
type tracedCall struct {
	id                                       uint64
	mutate, call, clientIO, serverIO, handle interval
}

// assemble joins the seams' logs into per-call spans. It must run after
// the pool and the server are closed, and before the logs are released. Calls whose exchange cannot be
// joined (a retried or resynchronised call writes twice) are an error:
// no workload is meant to have any.
func (tr *tracer) assemble(calls []callSpan) ([]tracedCall, error) {
	byID := make(map[uint64]*tracedCall, len(calls))
	out := make([]tracedCall, len(calls))
	for i, cs := range calls {
		out[i] = tracedCall{id: cs.id, mutate: interval{cs.mutate, cs.start}, call: interval{cs.start, cs.end}}
		byID[cs.id] = &out[i]
	}
	joined := 0
	for _, c := range tr.clients {
		s := tr.servers[c.clientAddr]
		if s == nil {
			return nil, fmt.Errorf("trace: connection %s was never accepted", c.clientAddr)
		}
		if len(s.handles) != len(c.requests) {
			return nil, fmt.Errorf("trace: connection %s wrote %d requests but its server side handled %d",
				c.clientAddr, len(c.requests), len(s.handles))
		}
		var sr, sw, cr int // cursors into s.reads, s.writes, c.reads
		for k, req := range c.requests {
			tc := byID[req.id]
			if tc == nil {
				return nil, fmt.Errorf("trace: request of unknown call %d", req.id)
			}
			// server_io opens at the read that delivered the request's
			// first byte…
			for sr < len(s.reads) && s.reads[sr].off <= req.off {
				sr++
			}
			// …and closes at the last write before the next request is
			// handled: the dispatcher answers one request at a time.
			limit := int64(1<<63 - 1)
			if k+1 < len(s.handles) {
				limit = s.handles[k+1].start
			}
			for sw+1 < len(s.writes) && s.writes[sw+1].t <= limit {
				sw++
			}
			if sr >= len(s.reads) || sw >= len(s.writes) || s.writes[sw].t < s.handles[k].end || s.writes[sw].t > limit {
				return nil, fmt.Errorf("trace: call %d has no server-side I/O", req.id)
			}
			// client_io closes at the read that delivered the response's
			// last byte.
			for cr < len(c.reads) && c.reads[cr].off < s.writes[sw].off {
				cr++
			}
			if cr >= len(c.reads) {
				return nil, fmt.Errorf("trace: call %d never read its response", req.id)
			}
			tc.clientIO = interval{req.t, c.reads[cr].t}
			// The client can have the last byte before the server's Write
			// has returned to be stamped; the response was written by then.
			tc.serverIO = interval{s.reads[sr].t, min(s.writes[sw].t, c.reads[cr].t)}
			tc.handle = s.handles[k]
			sw++
			joined++
		}
	}
	if joined != len(calls) {
		return nil, fmt.Errorf("trace: %d calls recorded but %d exchanges joined", len(calls), joined)
	}
	return out, nil
}

// span is the trace file's record: a name, the interval, the span that
// caused it and the call all of one call's spans share.
type span struct {
	Name    string `json:"name"`
	Call    uint64 `json:"call"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// traceFileCalls bounds the trace file: a traced pass records hundreds
// of thousands of calls, the file keeps the first of them.
const traceFileCalls = 2000

// outDir is where trace files go, relative to the root of the checkout
// the benchmark is run from.
var outDir = filepath.Join("benchmark", "out")

// writeTrace writes the first traceFileCalls calls' spans to
// <outDir>/trace-<workload>.json.
func writeTrace(workload string, calls []tracedCall) (string, error) {
	doc := struct {
		Workload     string `json:"workload"`
		CallsTraced  int    `json:"calls_traced"`
		CallsWritten int    `json:"calls_written"`
		Spans        []span `json:"spans"`
	}{Workload: workload, CallsTraced: len(calls), CallsWritten: min(len(calls), traceFileCalls)}
	for _, tc := range calls[:doc.CallsWritten] {
		doc.Spans = append(doc.Spans,
			span{"mutate", tc.id, "", tc.mutate.start, tc.mutate.end},
			span{"call", tc.id, "", tc.call.start, tc.call.end},
			span{"client_io", tc.id, "call", tc.clientIO.start, tc.clientIO.end},
			span{"server_io", tc.id, "client_io", tc.serverIO.start, tc.serverIO.end},
			span{"handle", tc.id, "server_io", tc.handle.start, tc.handle.end})
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
