package pool

import (
	"sync"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/transport"
	"bsoap/internal/workload"
)

// BenchmarkPoolParallel measures pooled concurrent calls over loopback:
// every parallel goroutine owns a message and shares the Pool. Run with
// -cpu 1,2,4,8 to see scaling; compare BenchmarkSingleSenderMutex, the
// baseline a pool-less client is stuck with (one engine, one
// connection, one global lock).
func BenchmarkPoolParallel(b *testing.B) {
	p, _ := newAckPool(b, Options{
		Size:     16,
		Replicas: 16,
		Config:   core.Config{Width: core.WidthPolicy{Double: 18}},
	})

	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := workload.NewDoubles(1000, workload.FillIntermediate)
		if _, err := p.Call(d.Msg); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			d.TouchFraction(0.1)
			if _, err := p.Call(d.Msg); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSingleSenderMutex is the no-pool baseline: all goroutines
// funnel through one stub and one connection (to the same kind of
// loopback ack server, each response read) behind a mutex.
func BenchmarkSingleSenderMutex(b *testing.B) {
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{Respond: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sink, err := transport.Dial(srv.Addr(), transport.SenderOptions{ExpectResponse: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: 18}}, sink)
	var mu sync.Mutex

	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := workload.NewDoubles(1000, workload.FillIntermediate)
		mu.Lock()
		_, err := stub.Call(d.Msg)
		mu.Unlock()
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			d.TouchFraction(0.1)
			mu.Lock()
			_, err := stub.Call(d.Msg)
			mu.Unlock()
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
