package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/membuf"
	"bsoap/internal/soapenv"
	"bsoap/internal/wire"
)

// TestUnrepresentableTemplateGoesFromScratch drives templates past the
// narrowest field of a DUT entry, its uint16 chunk id, with chunks a few
// items long. A template the table cannot represent is never kept: its
// call is served by the one-pass renderer, byte for byte, its arenas go
// back to the pool, and the next call of the structure succeeds the same
// way.
func TestUnrepresentableTemplateGoesFromScratch(t *testing.T) {
	t.Run("build", func(t *testing.T) {
		// One 16-byte chunk an item: 70 000 items need more chunk ids
		// than an entry holds.
		cfg := Config{Chunk: chunk.Config{ChunkSize: 16}}
		m := wire.NewMessage("urn:t", "op")
		m.AddDoubleArray("v", 70000)
		s, sink, pool := overflowStub(cfg)
		requireFromScratch(t, s, sink, pool, m)
		m.SetLeafDouble(7, 1.5)
		requireFromScratch(t, s, sink, pool, m)
	})
	t.Run("split", func(t *testing.T) {
		// Two empty string items a 32-byte chunk, sized so the build
		// takes exactly the last chunk id an entry holds. A value that
		// outgrows its field past the split threshold (twice the chunk
		// size) then splits its chunk and moves its neighbour into a
		// chunk whose id does not fit.
		cfg := Config{Chunk: chunk.Config{ChunkSize: 32}}
		m := wire.NewMessage("urn:t", "op")
		arr := m.AddStringArray("v", 131072)
		s, sink, pool := overflowStub(cfg)
		ci, err := s.Call(m)
		if err != nil || ci.Match != FirstTime {
			t.Fatalf("build: %v, %v", ci.Match, err)
		}
		tpl := s.Template(m.Operation(), m.Signature())
		if n := entryChunks(tpl); n != math.MaxUint16+1 {
			t.Fatalf("entries lie in %d chunks, want %d", n, math.MaxUint16+1)
		}
		if tpl.Footprint() == 0 {
			t.Fatal("no footprint for the built template")
		}
		arr.Set(0, strings.Repeat("x", 64))
		requireFromScratch(t, s, sink, pool, m)
		// With the wide value gone again, the next call builds the
		// structure's template afresh, in the same chunks as the first.
		arr.Set(0, "")
		arr.Set(1, "7")
		if ci, err := s.Call(m); err != nil || ci.Match != FirstTime {
			t.Fatalf("rebuild: %v, %v", ci.Match, err)
		}
		if want := new(soapenv.Compiler).AppendMessage(nil, m, 0); !bytes.Equal(sink.data, want) {
			t.Fatal("the rebuilt template differs from a from-scratch rendering")
		}
		s.Template(m.Operation(), m.Signature()).Table().CheckInvariants()
	})
}

// entryChunks counts the chunks of tpl that hold entries: the chunk ids
// its DUT table has handed out.
func entryChunks(tpl *Template) int {
	n := 0
	tab := tpl.Table()
	for i := 0; i < tab.Len(); i++ {
		if i == 0 || tab.Chunk(tab.At(i)) != tab.Chunk(tab.At(i-1)) {
			n++
		}
	}
	return n
}

// overflowStub returns a stub over cfg whose chunks come from a private,
// tracked pool.
func overflowStub(cfg Config) (*Stub, *captureSink, *membuf.Pool) {
	pool := membuf.NewPool()
	pool.EnableTracking()
	cfg.Chunk.Pool = pool
	sink := &captureSink{}
	return NewStub(cfg, sink), sink, pool
}

// requireFromScratch calls m and requires the call to have gone out from
// scratch, exactly as the one-pass renderer writes m, with no template
// or arena left behind.
func requireFromScratch(t *testing.T, s *Stub, sink *captureSink, pool *membuf.Pool, m *wire.Message) {
	t.Helper()
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != FullSerialization {
		t.Fatalf("call served as %v, want %v", ci.Match, FullSerialization)
	}
	if want := new(soapenv.Compiler).AppendMessage(nil, m, 0); !bytes.Equal(sink.data, want) {
		t.Fatalf("sent %d bytes that differ from the %d a from-scratch rendering writes", len(sink.data), len(want))
	}
	if s.Template(m.Operation(), m.Signature()) != nil || s.store.templateCount() != 0 {
		t.Fatal("an unrepresentable template was kept")
	}
	if live := pool.LiveBytes(); live != 0 {
		t.Fatalf("%d B of arenas still out after the template was dropped", live)
	}
	if m.AnyDirty() {
		t.Fatal("dirty bits survived a successful call")
	}
}
