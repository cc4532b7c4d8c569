package serverpool

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/pool"
	reg "bsoap/internal/replica"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// TestRecorderEvictsBasesAtTheCap is the recorder's share of the
// keeper's bound: a connection that syncs one template more than
// maxDeltaBases loses the least recently used base, the evicted
// template's next patch is refused with a resync, and the pool recovers
// with a full body — every recorded body still byte-identical to a
// from-scratch serialization of what the client sent.
func TestRecorderEvictsBasesAtTheCap(t *testing.T) {
	sm := transport.NewServerMetrics()
	rec := NewRecorder(0, sm)
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Handler: rec.HTTPHandler(), Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The client keeps every shape's template, so only the server
	// forgets: the shapes are spread over operations, at most the cap of
	// them each, so none is refused or evicted.
	cfg := core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}}
	p, err := pool.New(pool.Options{
		Size: 1, Addr: srv.Addr(), Config: cfg, Delta: true,
		Sender: transport.SenderOptions{ExpectResponse: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	call := func(c *client) {
		t.Helper()
		c.arr.Set(0, c.arr.Get(0)+1)
		if _, err := p.Call(c.msg); err != nil {
			t.Fatal(err)
		}
		// Stuffed widths: a new stub's first-time send lays the same
		// values out in the same bytes.
		scratch := &captureSink{}
		if _, err := core.NewStub(cfg, scratch).Call(c.msg); err != nil {
			t.Fatal(err)
		}
		bodies := rec.Bodies()
		if got := bodies[len(bodies)-1]; !bytes.Equal(got, scratch.data) {
			t.Fatalf("recorded body diverges from a from-scratch serialization\n got: %s\nwant: %s", got, scratch.data)
		}
	}

	// One template per shape, each synced by its first call and patched
	// by its second; the last sync is one more than the keeper holds.
	clients := make([]*client, maxDeltaBases+1)
	for i := range clients {
		clients[i] = newOpClient(fmt.Sprintf("sum%d", i/reg.TemplatesPerOp), 4+i)
		call(clients[i])
		call(clients[i])
	}
	if st, ss := p.Stats(), sm.Snapshot(); st.DeltaSends != int64(len(clients)) || st.DeltaResyncs != 0 || ss.DeltaResyncs != 0 || ss.DeltaBaseEvictions != 1 {
		t.Fatalf("before the evicted template returns: %d patches, %d resyncs (server %d, %d bases evicted)",
			st.DeltaSends, st.DeltaResyncs, ss.DeltaResyncs, ss.DeltaBaseEvictions)
	}

	// The first template's base went when the last one synced: its patch
	// is refused once, resent in full (a new sync), and patches again.
	applied := sm.Snapshot().DeltaApplied
	call(clients[0])
	if st, ss := p.Stats(), sm.Snapshot(); st.DeltaResyncs != 1 || ss.DeltaResyncs != 1 || ss.DeltaApplied != applied {
		t.Fatalf("evicted template: client resyncs %d, server resyncs %d, applied %d -> %d; want one refusal",
			st.DeltaResyncs, ss.DeltaResyncs, applied, ss.DeltaApplied)
	}
	call(clients[0])
	if st, ss := p.Stats(), sm.Snapshot(); st.DeltaResyncs != 1 || ss.DeltaApplied != applied+1 {
		t.Fatalf("after recovery: resyncs %d, applied %d, want the template patching again", st.DeltaResyncs, ss.DeltaApplied)
	}
	if got, want := rec.Count(), 2*len(clients)+2; got != want || p.Stats().Errors != 0 {
		t.Fatalf("recorded %d bodies, want %d; %d call errors", got, want, p.Stats().Errors)
	}
}

// TestRecorderBoundsKeepers: a recorder holds patch bases for at most
// maxRecorderKeepers connections. One more connection drops the least
// recently active one's keeper, its bases are counted as evicted, and
// its next patch draws a resync that a full resend recovers from.
func TestRecorderBoundsKeepers(t *testing.T) {
	sm := transport.NewServerMetrics()
	rec := NewRecorder(0, sm)
	h := rec.HTTPHandler()
	body := []byte("<E:Envelope>full body</E:Envelope>")
	sync := func(conn uint64) {
		t.Helper()
		req := &transport.Request{ConnID: conn, DeltaMode: transport.DeltaSync, DeltaTID: 7, DeltaEpoch: 1, Body: body}
		if _, err := h(req); err != nil || !req.DeltaAck {
			t.Fatalf("conn %d: sync %v, ack %v", conn, err, req.DeltaAck)
		}
	}
	patch := func(conn uint64) error {
		frame := wire.AppendDeltaHeader(nil, 7, 1, 1, len(body), wire.DeltaCRC(body), 0)
		_, err := h(&transport.Request{ConnID: conn, DeltaMode: transport.DeltaPatch, Body: frame})
		return err
	}
	for conn := uint64(1); conn <= maxRecorderKeepers+1; conn++ {
		sync(conn)
	}
	if n := rec.keepers.Len(); n != maxRecorderKeepers {
		t.Fatalf("%d keepers held, want %d", n, maxRecorderKeepers)
	}
	if n := sm.Snapshot().DeltaBaseEvictions; n != 1 {
		t.Fatalf("%d bases evicted, want the dropped keeper's 1", n)
	}
	if err := patch(1); !errors.Is(err, wire.ErrDeltaResync) {
		t.Fatalf("patch on the dropped connection: %v, want a resync", err)
	}
	if err := patch(2); err != nil {
		t.Fatalf("patch on a held connection: %v", err)
	}
	sync(1) // the full resend
	if err := patch(1); err != nil {
		t.Fatalf("patch after the full resend: %v", err)
	}
	if ss := sm.Snapshot(); ss.DeltaResyncs != 1 || ss.DeltaApplied != 2 {
		t.Fatalf("%d resyncs and %d patches applied, want 1 and 2", ss.DeltaResyncs, ss.DeltaApplied)
	}
}
