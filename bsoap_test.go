package bsoap_test

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsoap"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// TestPublicAPIQuickstart exercises the facade exactly as the README
// shows it.
func TestPublicAPIQuickstart(t *testing.T) {
	msg := bsoap.NewMessage("urn:demo", "sendVector")
	vec := msg.AddDoubleArray("values", 100)
	for i := 0; i < vec.Len(); i++ {
		vec.Set(i, float64(i)+0.5)
	}
	sink := bsoap.NewDiscardSink()
	stub := bsoap.NewStub(bsoap.Config{}, sink)

	ci, err := stub.Call(msg)
	if err != nil || ci.Match != bsoap.FirstTime {
		t.Fatalf("first call: %+v, %v", ci, err)
	}
	vec.Set(7, 3.5) // same serialized width: rewritten in place
	ci, err = stub.Call(msg)
	if err != nil || ci.Match != bsoap.StructuralMatch || ci.ValuesRewritten != 1 {
		t.Fatalf("second call: %+v, %v", ci, err)
	}
	ci, err = stub.Call(msg)
	if err != nil || ci.Match != bsoap.ContentMatch {
		t.Fatalf("third call: %+v, %v", ci, err)
	}
	if sink.Sends() != 3 {
		t.Fatalf("sink saw %d sends", sink.Sends())
	}
}

// TestPublicAPITypes covers type construction through the facade.
func TestPublicAPITypes(t *testing.T) {
	mio := bsoap.StructOf("ns1:MIO",
		bsoap.Field{Name: "x", Type: bsoap.TInt},
		bsoap.Field{Name: "y", Type: bsoap.TInt},
		bsoap.Field{Name: "v", Type: bsoap.TDouble},
	)
	arr := bsoap.ArrayOf(mio)
	if arr.Elem != mio || mio.LeavesPerValue() != 3 {
		t.Fatal("type construction broken")
	}

	msg := bsoap.NewMessage("urn:demo", "op")
	ref := msg.AddStructArray("mios", mio, 4)
	ref.SetDouble(2, 2, math.Pi)
	if ref.Double(2, 2) != math.Pi {
		t.Fatal("struct array accessors broken")
	}
}

// switchSink forwards each send to whichever destination is current.
type switchSink struct{ to bsoap.Sink }

func (w *switchSink) Send(bufs net.Buffers) error { return w.to.Send(bufs) }

// TestSharedStoreFacade verifies the future-work template sharing across
// destinations through the public constructors: one stub whose sink is
// switched reuses its serialization for the second destination.
func TestSharedStoreFacade(t *testing.T) {
	sinkA, sinkB := &recordSink{}, &recordSink{}
	sw := &switchSink{to: sinkA}
	stub := bsoap.NewStub(bsoap.Config{}, sw)

	msg := bsoap.NewMessage("urn:demo", "op")
	arr := msg.AddDoubleArray("v", 10)
	arr.Set(0, 1)
	if _, err := stub.Call(msg); err != nil {
		t.Fatal(err)
	}
	sw.to = sinkB
	ci, err := stub.Call(msg)
	if err != nil || ci.Match != bsoap.ContentMatch {
		t.Fatalf("template not reused for second destination: %+v, %v", ci, err)
	}
	if string(sinkA.last()) != string(sinkB.last()) {
		t.Fatal("destinations received different bytes")
	}
}

// TestPoolFacade drives the concurrent runtime through the public API:
// a pool over a loopback server, goroutines sharing templates, and the
// metrics snapshot accounting for every call.
func TestPoolFacade(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool, err := bsoap.NewPool(bsoap.PoolOptions{Addr: srv.Addr(), Size: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	const workers, iters = 4, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := bsoap.NewMessage("urn:demo", "sendVector")
			vec := msg.AddDoubleArray("values", 100)
			for i := 0; i < vec.Len(); i++ {
				vec.Set(i, 0.5)
			}
			for i := 0; i < iters; i++ {
				if _, err := pool.Call(msg); err != nil {
					t.Error(err)
					return
				}
				vec.Set(i%vec.Len(), 1.5)
			}
		}()
	}
	wg.Wait()

	st := pool.Stats()
	if st.Calls != workers*iters || st.Errors != 0 {
		t.Fatalf("calls=%d errors=%d, want %d/0", st.Calls, st.Errors, workers*iters)
	}
	if st.FirstTimeSends > 2 {
		t.Fatalf("first-time sends = %d, want ≤ Replicas (templates shared across goroutines)", st.FirstTimeSends)
	}
	var got bsoap.PoolStats = st // the snapshot type is exported
	if got.WarmCalls() != st.ContentMatches+st.StructuralMatches+st.PartialMatches {
		t.Fatal("WarmCalls accounting broken")
	}
}

// TestEndToEndOverlayStreaming drives the whole stack through the
// chunk-overlay path: overlay engine → HTTP/1.1 chunked transfer →
// transport server → SOAP dispatch → handler, verifying the values that
// arrive.
func TestEndToEndOverlayStreaming(t *testing.T) {
	var lastSum atomic.Value
	endpoint := serverpool.New(serverpool.Options{})
	resp := wire.NewMessage("urn:calc", "sumResponse")
	total := resp.AddDouble("total", 0)
	endpoint.RegisterShared(&soapdec.Schema{
		Namespace: "urn:calc",
		Op:        "sum",
		Params:    []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}, func(req *wire.Message) (*wire.Message, error) {
		var s float64
		for i := 0; i < req.NumLeaves(); i++ {
			s += req.LeafDouble(i)
		}
		lastSum.Store(s)
		total.Set(s)
		return resp, nil
	})

	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: endpoint.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sender, err := bsoap.Dial(srv.Addr(), bsoap.SenderOptions{
		ExpectResponse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// 5000 elements at max stuffing span many 32K portions.
	msg := bsoap.NewMessage("urn:calc", "sum")
	vec := msg.AddDoubleArray("values", 5000)
	want := 0.0
	for i := 0; i < vec.Len(); i++ {
		vec.Set(i, float64(i%100))
		want += float64(i % 100)
	}
	stub := bsoap.NewStub(bsoap.Config{
		Width: bsoap.WidthPolicy{Double: bsoap.MaxWidth},
	}, sender)

	for round := 0; round < 3; round++ {
		if _, err := stub.CallOverlay(msg, sender); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, _ := lastSum.Load().(float64)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("round %d: server summed %g, want %g", round, got, want)
		}
		// Change one value for the next round.
		vec.Set(round, 1000)
		want += 1000 - float64(round%100)
	}
}

// TestConnectionDropMidStream injects a failure: the server goes away
// between sends; the client surfaces an error and the message's dirty
// state survives for a retry against a new connection.
func TestConnectionDropMidStream(t *testing.T) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	sender, err := bsoap.Dial(addr, bsoap.SenderOptions{})
	if err != nil {
		t.Fatal(err)
	}

	msg := bsoap.NewMessage("urn:demo", "op")
	arr := msg.AddDoubleArray("v", 2000)
	stub := bsoap.NewStub(bsoap.Config{}, sender)
	if _, err := stub.Call(msg); err != nil {
		t.Fatal(err)
	}

	// Kill the server and the connection.
	srv.Close()
	sender.Close()

	arr.Set(3, 42)
	var sawErr bool
	// A write into a closed socket may need a couple of sends to
	// surface the error through TCP buffering.
	for i := 0; i < 10 && !sawErr; i++ {
		if _, err := stub.Call(msg); err != nil {
			sawErr = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawErr {
		t.Fatal("no error from sends into a dead connection")
	}
	if !msg.AnyDirty() {
		t.Fatal("dirty state lost on send failure")
	}

	// Recovery: new server, new connection, same stub state via a new
	// stub sharing nothing — message data is intact.
	srv2, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	sender2, err := bsoap.Dial(srv2.Addr(), bsoap.SenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sender2.Close()
	stub2 := bsoap.NewStub(bsoap.Config{}, sender2)
	if _, err := stub2.Call(msg); err != nil {
		t.Fatalf("retry after reconnect: %v", err)
	}
	if arr.Get(3) != 42 {
		t.Fatal("data lost across reconnect")
	}
}
