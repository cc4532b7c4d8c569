package serverpool

import (
	"runtime"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/membuf"
	reg "bsoap/internal/replica"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// TestResponseStubMemoryIsFreed holds a replica's response stub to what
// it answers: 256 connections each send the benchmark's small_serial
// messages, every replica's stub builds a template per one-int response,
// and dropping those templates must give back at most 4 KB a replica —
// memory the heap really loses, within a quarter of what the gauge
// charged for it. The stubs' chunks draw from a private pool, so no
// arena recycled from an earlier test can serve a build and hide it.
func TestResponseStubMemoryIsFreed(t *testing.T) {
	const conns = 256
	var bodies [][]byte
	for _, m := range []*wire.Message{
		workload.NewDoubles(8, workload.FillIntermediate).Msg,
		workload.NewInts(8, workload.FillIntermediate).Msg,
		workload.NewMIOs(3, workload.FillIntermediate).Msg,
	} {
		bodies = append(bodies, renderFresh(t, m))
	}
	rt := newBenchRuntime(Options{DifferentialDeserialization: true,
		Core: core.Config{Chunk: chunk.Config{Pool: membuf.NewPool()}}}, false)
	h := rt.HTTPHandler()
	for c := uint64(1); c <= conns; c++ {
		for _, b := range bodies {
			if _, err := h(&transport.Request{Method: "POST", ConnID: c, Body: b}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stubs int64
	for c := uint64(1); c <= conns; c++ {
		_, stub := replicaSize(rt, c)
		stubs += stub
	}

	// Two collections: an arena released into a sync.Pool survives the
	// first in the pool's victim cache. The heap is read as HeapAlloc,
	// live object bytes: freed objects leave their spans partly occupied,
	// so HeapInuse does not fall with them.
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	for c := uint64(1); c <= conns; c++ {
		slot, r := rt.acquire(reg.Key{Conn: c})
		r.stub.Store().ReleaseAll()
		rt.release(slot)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	runtime.KeepAlive(rt)

	heap := (float64(held.HeapAlloc) - float64(freed.HeapAlloc)) / conns
	fp := float64(stubs) / conns
	t.Logf("per replica: response stub frees %.0f B of heap, gauge charged %.0f B", heap, fp)
	if heap > 4096 {
		t.Errorf("response stub held %.0f B of heap per replica, want <= 4096", heap)
	}
	if heap < 0.75*fp || heap > 1.25*fp {
		t.Errorf("response stub heap %.0f B per replica is not within 25%% of its gauge %.0f B", heap, fp)
	}
}
