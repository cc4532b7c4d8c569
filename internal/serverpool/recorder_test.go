package serverpool

import (
	"bytes"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/pool"
	"bsoap/internal/transport"
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
	// The client keeps every shape's template, so only the server forgets.
	cfg := core.Config{Width: core.WidthPolicy{Double: core.MaxWidth}, MaxTemplatesPerOp: 2 * maxDeltaBases}
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
		clients[i] = newClient(4 + i)
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
