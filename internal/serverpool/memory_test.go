package serverpool

import (
	"bytes"
	"runtime"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/core"
	"bsoap/internal/membuf"
	reg "bsoap/internal/replica"
	"bsoap/internal/soapenv"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// TestResponseStubMemoryIsFreed holds a replica's response templates to
// what it answers: 256 connections each send the benchmark's
// small_serial messages, every replica builds a template per one-int
// response, and releasing those templates must give back at most 4 KB a
// replica — memory the heap really loses, within a quarter of what the
// gauge charged for it. The templates' chunks draw from a private pool,
// so no arena recycled from an earlier test can serve a build and hide
// it.
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
	rt := newBenchRuntime(Options{Core: core.Config{Chunk: chunk.Config{Pool: membuf.NewPool()}}}, false)
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
		rt.release(slot)
		r.ReleaseArenas()
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

// TestResponseTemplateFollowsItsShape serves a handler that alternates
// two response shapes, by two message objects and by resizing one of
// them, so the operation's one held template is replaced on most
// requests. Every response must read as a from-scratch rendering, the
// replica's charge must follow what it holds after every request, and
// releasing its arenas must return every one.
func TestResponseTemplateFollowsItsShape(t *testing.T) {
	pool := membuf.NewPool()
	pool.EnableTracking()
	defer pool.DisableTracking()
	rt := New(Options{Core: core.Config{Chunk: chunk.Config{Pool: pool}}})
	rt.Register(sumSchema(), func() Handler {
		one := wire.NewMessage("urn:calc", "sumResponse")
		one.AddInt("n", 7)
		many := wire.NewMessage("urn:calc", "sumResponse")
		arr := many.AddIntArray("n", 2)
		calls := 0
		return func(*wire.Message) (*wire.Message, error) {
			calls++
			switch calls % 4 {
			case 1, 2:
				return one, nil
			}
			many.ResizeArray(0, 2+calls%2)
			for i := 0; i < arr.Len(); i++ {
				arr.Set(i, 7)
			}
			return many, nil
		}
	})
	body := newClient(4).body(t)
	for i := 1; i <= 12; i++ {
		resp, err := rt.Handle(1, "", body)
		if err != nil {
			t.Fatal(err)
		}
		slot, r := rt.acquire(reg.Key{Conn: 1})
		op := r.ops["sum"]
		want := new(soapenv.Compiler).AppendMessage(nil, op.tpl.Message(), 0)
		held := respFootprint(r) + r.bases.bytes + int64(r.differ.SizeBytes())
		rt.release(slot)
		if !bytes.Equal(resp, want) {
			t.Fatalf("request %d: response differs from a from-scratch rendering:\n%s\n%s", i, resp, want)
		}
		if size := int64(r.SizeBytes()); size != held {
			t.Fatalf("request %d: replica charged %d B, holds %d B", i, size, held)
		}
	}
	if st := rt.ResponseStats(); st.FirstTimeSends != 9 || st.DegradedFTS != 0 || st.Calls != 12 {
		t.Fatalf("%d first-time sends (%d degraded) of %d calls, want 9 (0) of 12", st.FirstTimeSends, st.DegradedFTS, st.Calls)
	}
	slot, r := rt.acquire(reg.Key{Conn: 1})
	rt.release(slot)
	r.ReleaseArenas()
	if live := pool.LiveBytes(); live != 0 {
		t.Fatalf("%d B of arenas still out after ReleaseArenas", live)
	}
}
