package core

import (
	"runtime"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/membuf"
	"bsoap/internal/wire"
	"bsoap/internal/workload"
)

// TestOverlayBoundsMemory verifies the paper's §3.3 claim numerically:
// the resident cost of chunk overlaying stays bounded by the chunk size
// while a full template grows with the message.
func TestOverlayBoundsMemory(t *testing.T) {
	const n = 100000
	cfg := overlayConfig() // 512-byte chunks, max-width stuffing

	build := func() *wire.Message {
		m := wire.NewMessage("urn:t", "big")
		arr := m.AddDoubleArray("v", n)
		for i := 0; i < n; i++ {
			arr.Set(i, float64(i))
		}
		return m
	}

	// Resident template.
	tmplStub := NewStub(cfg, &captureSink{})
	mT := build()
	if _, err := tmplStub.Call(mT); err != nil {
		t.Fatal(err)
	}
	tmplCost := tmplStub.Template(mT.Operation(), mT.Signature()).memoryFootprint()

	// Overlay.
	ovStub := NewStub(cfg, &captureSink{})
	mO := build()
	sink := &captureStream{}
	if _, err := ovStub.CallOverlay(mO, sink); err != nil {
		t.Fatal(err)
	}
	ovCost := ovStub.OverlayFootprint(mO.Operation())

	if ovCost == 0 || tmplCost == 0 {
		t.Fatalf("footprints: overlay %d, template %d", ovCost, tmplCost)
	}
	// A 100K-double message at max width is several megabytes resident;
	// the overlay state holds head+tail+frame+one chunk's buffers.
	if tmplCost < 100*ovCost {
		t.Fatalf("overlay does not bound memory: template %d bytes, overlay %d bytes",
			tmplCost, ovCost)
	}
	t.Logf("template %d bytes resident vs overlay %d bytes (%.0fx reduction)",
		tmplCost, ovCost, float64(tmplCost)/float64(ovCost))
}

// TestTemplateMemoryIsFreed holds the footprint to the heap: small
// templates must cost what they hold, and the saving must be memory that
// is gone, not a term dropped from the gauge. The chunks draw from a
// private pool, so no arena recycled from an earlier test can serve a
// build and hide what it allocates.
func TestTemplateMemoryIsFreed(t *testing.T) {
	const stubs = 2000
	cfg := Config{
		Chunk: chunk.Config{Pool: membuf.NewPool()},
		Width: WidthPolicy{Double: 18, Int: 9},
	}
	// The benchmark's small_serial messages: 8 doubles, 8 ints, 3 MIOs.
	msgs := []*wire.Message{
		workload.NewDoubles(8, workload.FillIntermediate).Msg,
		workload.NewInts(8, workload.FillIntermediate).Msg,
		workload.NewMIOs(3, workload.FillIntermediate).Msg,
	}
	sink := &captureSink{} // shared: it holds one message at a time
	ss := make([]*Stub, stubs)
	for i := range ss {
		ss[i] = NewStub(cfg, sink)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, s := range ss {
		for _, m := range msgs {
			if _, err := s.Call(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two collections: an arena released into a sync.Pool survives the
	// first in the pool's victim cache.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	footprint := 0
	for _, s := range ss {
		footprint += s.Footprint()
	}
	runtime.KeepAlive(ss)

	n := float64(stubs * len(msgs))
	heap := (float64(after.HeapInuse) - float64(before.HeapInuse)) / n
	fp := float64(footprint) / n
	t.Logf("per template: heap growth %.0f B, MemoryFootprint %.0f B", heap, fp)
	if heap > 4096 {
		t.Errorf("heap grew %.0f B per template, want <= 4096", heap)
	}
	if heap < 0.75*fp || heap > 1.25*fp {
		t.Errorf("heap growth %.0f B per template is not within 25%% of MemoryFootprint %.0f B", heap, fp)
	}
}

// TestFootprintGrowsWithMessage sanity-checks the accounting itself.
func TestFootprintGrowsWithMessage(t *testing.T) {
	cost := func(n int) int {
		m := wire.NewMessage("urn:t", "op")
		m.AddDoubleArray("v", n)
		s := NewStub(Config{}, &captureSink{})
		if _, err := s.Call(m); err != nil {
			t.Fatal(err)
		}
		return s.Template(m.Operation(), m.Signature()).memoryFootprint()
	}
	small, large := cost(100), cost(10000)
	if large <= small {
		t.Fatalf("footprint not monotone: %d vs %d", small, large)
	}
}
