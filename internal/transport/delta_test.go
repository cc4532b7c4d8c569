package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bsoap/internal/diffdeser"
	"bsoap/internal/wire"
)

// deltaPeer is a transport server behaving like a delta-capable
// endpoint: sync-annotated bodies are acked, patch frames are accepted
// or refused with a resync depending on the refuse flag.
func deltaPeer(t *testing.T, refuse *atomic.Bool) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", ServerOptions{
		Respond: true,
		Handler: func(req *Request) ([]byte, error) {
			switch req.DeltaMode {
			case DeltaSync:
				req.DeltaAck = true
				req.DeltaAckTID = req.DeltaTID
				req.DeltaAckEpoch = req.DeltaEpoch
			case DeltaPatch:
				if refuse.Load() {
					return nil, fmt.Errorf("peer lost the base: %w", wire.ErrDeltaResync)
				}
			}
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// submitWait is one annotated request at depth 1: Submit, then wait for
// its response.
func submitWait(s *Sender, bufs net.Buffers, an Annotation) error {
	var p Pending
	if err := s.Submit(&p, bufs, an); err != nil {
		return err
	}
	return p.Wait()
}

// TestSenderDeltaNegotiation drives one-at-a-time annotated submits
// through the whole negotiation lifecycle: not capable until the first
// ack, synchronized epochs tracked per template, a 409/resync clearing
// the sync map (but not capability) and surfacing as
// wire.ErrDeltaResync with the sender healthy, and a fresh sync
// restoring patch eligibility.
func TestSenderDeltaNegotiation(t *testing.T) {
	var refuse atomic.Bool
	srv := deltaPeer(t, &refuse)
	s, err := Dial(srv.Addr(), SenderOptions{Delta: true, ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok := s.DeltaEpoch(5); ok {
		t.Fatal("sender believed peer capable before any ack")
	}
	if err := submitWait(s, net.Buffers{[]byte("<body/>")}, Annotation{DeltaSync, 5, 1}); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if e, ok := s.DeltaEpoch(5); !ok || e != 1 {
		t.Fatalf("after acked sync: epoch %d, ok %v, want 1/true", e, ok)
	}

	refuse.Store(true)
	err = submitWait(s, net.Buffers{[]byte("patchbytes")}, Annotation{DeltaPatch, 5, 2})
	if !errors.Is(err, wire.ErrDeltaResync) {
		t.Fatalf("refused patch returned %v, want ErrDeltaResync", err)
	}
	if s.Broken() {
		t.Fatal("a refused patch broke the sender")
	}
	if _, ok := s.DeltaEpoch(5); ok {
		t.Fatal("sync map not cleared by the resync")
	}

	refuse.Store(false)
	if err := submitWait(s, net.Buffers{[]byte("<body/>")}, Annotation{DeltaSync, 5, 2}); err != nil {
		t.Fatalf("sync after resync: %v", err)
	}
	if e, ok := s.DeltaEpoch(5); !ok || e != 2 {
		t.Fatalf("after re-sync: epoch %d, ok %v, want 2/true", e, ok)
	}
}

// TestSenderDeltaOffPassthrough: with Delta off, a sync-annotated
// submit is a plain request (no header, no sync state) and DeltaEpoch
// never reports capable.
func TestSenderDeltaOffPassthrough(t *testing.T) {
	var refuse atomic.Bool
	srv := deltaPeer(t, &refuse)
	s, err := Dial(srv.Addr(), SenderOptions{ExpectResponse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := submitWait(s, net.Buffers{[]byte("<body/>")}, Annotation{DeltaSync, 5, 1}); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if _, ok := s.DeltaEpoch(5); ok {
		t.Fatal("Delta off but DeltaEpoch reported capable")
	}
	s.mu.Lock()
	n := len(s.delta.syncs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("Delta off but %d syncs noted", n)
	}
}

// TestDeltaStateOverflow: the per-connection sync map is bounded; the
// entry past the cap clears the map wholesale (every template simply
// resynchronizes) rather than growing without bound.
func TestDeltaStateOverflow(t *testing.T) {
	d := &deltaState{capable: true}
	for i := uint64(0); i < maxDeltaSyncs; i++ {
		d.noteSync(i, 1)
	}
	if e, ok := d.epoch(0); !ok || e != 1 {
		t.Fatalf("epoch(0) = %d, %v before overflow", e, ok)
	}
	d.noteSync(maxDeltaSyncs, 7)
	if _, ok := d.epoch(0); ok {
		t.Fatal("overflow did not clear the sync map")
	}
	if e, ok := d.epoch(maxDeltaSyncs); !ok || e != 7 {
		t.Fatalf("overflowing entry = %d, %v, want 7/true", e, ok)
	}
	// Re-noting an existing tid at the cap must NOT clear.
	d.noteSync(maxDeltaSyncs, 8)
	if e, ok := d.epoch(maxDeltaSyncs); !ok || e != 8 {
		t.Fatalf("re-note = %d, %v, want 8/true", e, ok)
	}
}

// TestPipelineDeltaAsync is the pipelined mirror of the negotiation
// test: sync acks arrive on the read loop, a refused patch fails only
// its own pending with wire.ErrDeltaResync, and later submits on the
// same pipeline proceed.
func TestPipelineDeltaAsync(t *testing.T) {
	var refuse atomic.Bool
	srv := deltaPeer(t, &refuse)
	s, err := Dial(srv.Addr(), SenderOptions{Delta: true, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := submit(s, net.Buffers{[]byte("<body/>")}, Annotation{DeltaSync, 9, 1})
	if err != nil {
		t.Fatalf("sync submit: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("sync pending: %v", err)
	}
	if e, ok := s.DeltaEpoch(9); !ok || e != 1 {
		t.Fatalf("after pipelined sync: epoch %d, ok %v, want 1/true", e, ok)
	}

	refuse.Store(true)
	p, err = submit(s, net.Buffers{[]byte("patchbytes")}, Annotation{DeltaPatch, 9, 2})
	if err != nil {
		t.Fatalf("patch submit: %v", err)
	}
	if err := p.Wait(); !errors.Is(err, wire.ErrDeltaResync) {
		t.Fatalf("refused pipelined patch resolved %v, want ErrDeltaResync", err)
	}
	if _, ok := s.DeltaEpoch(9); ok {
		t.Fatal("pipelined resync did not clear the sync map")
	}

	// The connection survived the 409: a full send resynchronizes.
	refuse.Store(false)
	p, err = submit(s, net.Buffers{[]byte("<body/>")}, Annotation{DeltaSync, 9, 2})
	if err != nil {
		t.Fatalf("sync submit after resync: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("re-sync pending: %v", err)
	}
	if e, ok := s.DeltaEpoch(9); !ok || e != 2 {
		t.Fatalf("after pipelined re-sync: epoch %d, ok %v, want 2/true", e, ok)
	}
}

// TestPipelineDeltaOffFallback: with Delta off, a sync-annotated Submit
// degrades to a plain one.
func TestPipelineDeltaOffFallback(t *testing.T) {
	var refuse atomic.Bool
	srv := deltaPeer(t, &refuse)
	pl := pipelineOver(t, srv, 2)
	p, err := submit(pl, net.Buffers{[]byte("<body/>")}, Annotation{DeltaSync, 3, 1})
	if err != nil {
		t.Fatalf("sync submit: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("pending: %v", err)
	}
	if _, ok := pl.DeltaEpoch(3); ok {
		t.Fatal("Delta off but the pipeline tracked a sync")
	}
}

// TestServerMetricsDeltaCounters exercises the serverpool-facing
// recording methods directly and reads them back through Snapshot.
func TestServerMetricsDeltaCounters(t *testing.T) {
	m := NewServerMetrics()
	m.RecordDeltaSync(100)
	m.RecordDeltaApply(40, 100)
	m.RecordDeltaBaseEviction()
	m.RecordDDSDecode(diffdeser.Info{ValuesReparsed: 3})
	m.RecordDDSDecode(diffdeser.Info{FullParse: true, Reason: diffdeser.ReasonLength})
	m.RecordDDSDecode(diffdeser.Info{FullParse: true, Reason: diffdeser.ReasonLength, Refused: true})
	m.RecordReplicaEviction(true)
	m.RecordReplicaEviction(false)

	st := m.Snapshot()
	if st.DeltaSyncs != 1 || st.DeltaApplied != 1 || st.DeltaBaseEvictions != 1 {
		t.Fatalf("delta counters: %+v", st)
	}
	if st.DeltaWireBytes != 140 || st.DeltaRepresented != 200 {
		t.Fatalf("delta bytes: wire %d represented %d, want 140/200", st.DeltaWireBytes, st.DeltaRepresented)
	}
	if st.DDSFastPath != 1 || st.DDSFullParses != 2 || st.DDSValuesReparsed != 3 || st.DDSFullParseReasons["length"] != 2 || st.DDSRefused != 1 {
		t.Fatalf("dds counters: %+v", st)
	}
	if st.ReplicaEvictions != 2 || st.ReplicaBudgetEvictions != 1 {
		t.Fatalf("replica evictions: %d/%d", st.ReplicaEvictions, st.ReplicaBudgetEvictions)
	}
}

// recordConn is a fake net.Conn that keeps what is written to it and
// replays a canned response stream (then EOF) to its reader.
type recordConn struct {
	scriptedConn
	mu      sync.Mutex
	written bytes.Buffer
}

func (c *recordConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written.Write(b)
}

// TestSubmitSameOnBothPaths drives the three annotations through an
// ExpectResponse sender at depth 1 — a plain request through the bare
// Send, the delta ones through Submit and Pending.Wait, the only way a
// delta request is sent — and through Submit on a depth-2 sender,
// against each response the delta protocol distinguishes — 200 with an
// ack, 409 resync, 500 — and requires the same request bytes on the
// wire, the same outcome and the same negotiation state afterwards:
// there is one header renderer, one response read and one response
// classifier, and both paths go through them.
func TestSubmitSameOnBothPaths(t *testing.T) {
	annotations := map[string]Annotation{
		"plain": {},
		"sync":  {DeltaSync, 7, 3},
		"patch": {DeltaPatch, 7, 4},
	}
	responses := map[string]string{
		"200-ack":    "HTTP/1.1 200 OK\r\nX-BSoap-Delta: " + string(wire.AppendDeltaAck(nil, 7, 3)) + "\r\nContent-Length: 0\r\n\r\n",
		"409-resync": "HTTP/1.1 409 Conflict\r\nX-BSoap-Delta: resync\r\nContent-Length: 0\r\n\r\n",
		"500":        "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n",
	}
	type outcome struct {
		wire    string
		err     string
		resync  bool
		capable bool
		syncs   map[uint64]uint64
	}
	run := func(an Annotation, response string, pipelined bool) outcome {
		conn := &recordConn{scriptedConn: scriptedConn{r: bytes.NewReader([]byte(response))}}
		s := NewSender(conn, SenderOptions{Host: "peer", Delta: true, ExpectResponse: !pipelined, Depth: 2})
		s.delta.noteSync(9, 1) // an earlier template's sync: a resync must drop it too
		body := net.Buffers{[]byte("<a>"), []byte("</a>")}
		var err error
		if pipelined || an.Mode != DeltaNone {
			err = submitWait(s, body, an)
		} else {
			err = s.Send(body)
		}
		defer s.Close()
		o := outcome{resync: errors.Is(err, wire.ErrDeltaResync), syncs: map[uint64]uint64{}}
		if err != nil {
			o.err = err.Error()
		}
		conn.mu.Lock()
		o.wire = conn.written.String()
		conn.mu.Unlock()
		s.mu.Lock()
		o.capable = s.delta.capable
		for k, v := range s.delta.syncs {
			o.syncs[k] = v
		}
		s.mu.Unlock()
		return o
	}
	for an, annotation := range annotations {
		for resp, response := range responses {
			t.Run(an+"/"+resp, func(t *testing.T) {
				inline, piped := run(annotation, response, false), run(annotation, response, true)
				if !reflect.DeepEqual(inline, piped) {
					t.Fatalf("paths diverge\n inline: %+v\n  piped: %+v", inline, piped)
				}
				// And the one outcome is the right one.
				wantHdr := map[string]string{"plain": "", "sync": "X-BSoap-Delta: sync=", "patch": "X-BSoap-Delta: patch\r\n"}[an]
				if got := strings.Count(inline.wire, "X-BSoap-Delta"); (wantHdr == "") != (got == 0) || got > 1 || !strings.Contains(inline.wire, wantHdr) {
					t.Errorf("request carries %d delta headers, want %q:\n%s", got, wantHdr, inline.wire)
				}
				switch resp {
				case "200-ack":
					if inline.err != "" || !inline.capable {
						t.Errorf("after an ack: err %q capable %v, want none/true", inline.err, inline.capable)
					}
					if _, kept := inline.syncs[9]; !kept {
						t.Error("an ack dropped an earlier sync")
					}
				case "409-resync":
					if !inline.resync || len(inline.syncs) != 0 {
						t.Errorf("after a resync: resync %v syncs %v, want true and none", inline.resync, inline.syncs)
					}
				case "500":
					if inline.resync || !strings.Contains(inline.err, "500") || inline.capable {
						t.Errorf("after a 500: err %q resync %v capable %v", inline.err, inline.resync, inline.capable)
					}
					if an != "plain" && inline.syncs[7] == 0 {
						t.Errorf("a 500 undid the sync noted at write time: %v", inline.syncs)
					}
				}
			})
		}
	}
}
