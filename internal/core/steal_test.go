package core

import (
	"net"
	"testing"

	"bsoap/internal/wire"
)

// stealStub builds a stub with stuffed 10-char double fields and
// stealing enabled over a capture sink.
func stealStub(t *testing.T, n int) (*Stub, *captureSink, *wire.Message, wire.DoubleArrayRef) {
	t.Helper()
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", n)
	for i := 0; i < n; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	s := NewStub(Config{Width: WidthPolicy{Double: 10}, EnableStealing: true}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	return s, sink, m, arr
}

func TestStealFromLeftNeighbour(t *testing.T) {
	s, sink, m, arr := stealStub(t, 4)
	// Exhaust the padding of every entry to the RIGHT of index 3 (none
	// exist), so growing the last element must steal from the left.
	arr.Set(3, 1.234567890123) // 15 chars into a 10-char field
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Steals != 1 || ci.Shifts != 0 {
		t.Fatalf("expected a left steal, got %+v", ci)
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)
}

func TestStealPrefersRightThenLeft(t *testing.T) {
	s, sink, m, arr := stealStub(t, 5)
	// First expansion of element 2 steals from element 3 (right).
	arr.Set(2, 1.234567890123)
	ci, err := s.Call(m)
	if err != nil || ci.Steals != 1 {
		t.Fatalf("first steal: %+v, %v", ci, err)
	}
	// "1.234567890123" is 14 chars: deficit 4 against the 10-char field,
	// taken from element 3's padding (9 → 5).
	tpl := s.Template(m.Operation(), m.Signature())
	if d := tpl.Table().At(3); d.Width()-d.SerLen() != 5 {
		t.Fatalf("right neighbour pad = %d, want 5", d.Width()-d.SerLen())
	}
	checkRendered(t, m, sink.data)

	// Element 3's pad is now too small; growing element 3 itself must
	// look further right (element 4) and still steal, not shift.
	arr.Set(3, 1.234567890123)
	ci, err = s.Call(m)
	if err != nil || ci.Steals != 1 || ci.Shifts != 0 {
		t.Fatalf("second steal: %+v, %v", ci, err)
	}
	checkRendered(t, m, sink.data)

	// Element 4 donated already (width now 2); elements 3 and 2 are
	// full. Growing element 4 to a 10-char value (deficit 8) must steal
	// LEFT from element 1, which still has its full 9-char padding.
	arr.Set(4, 1.23456789)
	ci, err = s.Call(m)
	if err != nil || ci.Steals != 1 || ci.Shifts != 0 {
		t.Fatalf("left steal: %+v, %v", ci, err)
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)
}

func TestStealExhaustionFallsBackToShift(t *testing.T) {
	s, sink, m, arr := stealStub(t, 3)
	// Consume everyone's padding.
	for i := 0; i < 3; i++ {
		arr.Set(i, 1.234567890123) // 15 chars each; total pad is 3×9=27, each grow takes 5
	}
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)
	// Now no entry has ≥6 spare chars; the next growth must shift.
	arr.Set(1, -1.7976931348623157e+308) // 24 chars
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Shifts != 1 {
		t.Fatalf("expected shift fallback after pad exhaustion, got %+v", ci)
	}
	checkRendered(t, m, sink.data)
	checkTemplate(t, s, m)
}

func TestStealScanLimitRespected(t *testing.T) {
	m := wire.NewMessage("urn:t", "send")
	arr := m.AddDoubleArray("v", 12)
	for i := 0; i < 12; i++ {
		arr.Set(i, 1)
	}
	sink := &captureSink{}
	// Widths: first/last elements have pad, middle band none. Scan
	// limit 2 cannot reach a donor from the centre.
	s := NewStub(Config{Width: WidthPolicy{Double: 10}, EnableStealing: true, StealScan: 2}, sink)
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	// Drain pads of elements 3..9 by growing each to exactly 10 chars.
	for i := 3; i <= 9; i++ {
		arr.Set(i, 1.23456789) // 10 chars: fills the field, no expansion
	}
	if _, err := s.Call(m); err != nil {
		t.Fatal(err)
	}
	// Element 6 grows; donors (0..2, 10..11) are beyond scan distance 2.
	arr.Set(6, 1.234567890123)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Steals != 0 || ci.Shifts != 1 {
		t.Fatalf("scan limit ignored: %+v", ci)
	}
	checkRendered(t, m, sink.data)
}

// pipeSink exercises the pipelined writer against a slow consumer and
// records what arrives.
type pipeSink struct {
	data   []byte
	chunks int
	failAt int
}

func (p *pipeSink) BeginStream() error { p.data = p.data[:0]; p.chunks = 0; return nil }
func (p *pipeSink) StreamChunk(b []byte) error {
	p.chunks++
	if p.failAt != 0 && p.chunks == p.failAt {
		return net.ErrClosed
	}
	p.data = append(p.data, b...)
	return nil
}
func (p *pipeSink) EndStream() error { return nil }

// TestPipelinedOverlayMatchesSequential runs the overlay loop's two send
// modes side by side over array lengths around the portion size, for a
// scalar and a struct element: the streamed bytes and chunk boundaries,
// every CallInfo field and the stub's Stats must agree. A sink failing at
// the head, the second chunk or the tail fails both modes alike, counts
// nothing and keeps the message's dirty bits for a retry.
func TestPipelinedOverlayMatchesSequential(t *testing.T) {
	mio := wire.StructOf("ns1:MIO",
		wire.Field{Name: "x", Type: wire.TInt},
		wire.Field{Name: "y", Type: wire.TInt},
		wire.Field{Name: "value", Type: wire.TDouble},
	)
	elems := []struct {
		name  string
		build func(n int) *wire.Message
	}{
		{"double", func(n int) *wire.Message {
			m := wire.NewMessage("urn:t", "big")
			arr := m.AddDoubleArray("v", n)
			for i := 0; i < n; i++ {
				arr.Set(i, float64(i)+0.5)
			}
			return m
		}},
		{"mio", func(n int) *wire.Message {
			m := wire.NewMessage("urn:t", "big")
			arr := m.AddStructArray("v", mio, n)
			for i := 0; i < n; i++ {
				arr.SetInt(i, 0, int32(i))
				arr.SetInt(i, 1, int32(-i))
				arr.SetDouble(i, 2, float64(i)/3)
			}
			return m
		}},
	}
	cfg := overlayConfig()
	type outcome struct {
		ci     CallInfo
		err    error
		stats  Stats
		data   string
		chunks int
		dirty  bool
	}
	run := func(m *wire.Message, failAt int, pipelined bool) outcome {
		sink := &captureStream{failAt: failAt}
		s := NewStub(cfg, sink)
		call := s.CallOverlay
		if pipelined {
			call = s.CallOverlayPipelined
		}
		ci, err := call(m, sink)
		return outcome{ci, err, s.Stats(), string(sink.data), sink.portions, m.AnyDirty()}
	}
	for _, el := range elems {
		st, err := buildOverlayState(el.build(1), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		per := st.itemsPerMbuf
		for _, n := range []int{1, per - 1, per, per + 1, 3*per + 7} {
			seq, pip := run(el.build(n), 0, false), run(el.build(n), 0, true)
			if seq.err != nil || pip.err != nil {
				t.Fatalf("%s[%d]: %v / %v", el.name, n, seq.err, pip.err)
			}
			if pip.data != seq.data || pip.chunks != seq.chunks {
				t.Fatalf("%s[%d]: pipelined stream (%d B in %d chunks) diverges from sequential (%d B in %d)",
					el.name, n, len(pip.data), pip.chunks, len(seq.data), seq.chunks)
			}
			if pip.ci != seq.ci || pip.stats != seq.stats {
				t.Fatalf("%s[%d]: pipelined %+v %+v, sequential %+v %+v", el.name, n, pip.ci, pip.stats, seq.ci, seq.stats)
			}
			if seq.ci.Bytes != len(seq.data) || seq.ci.ValuesRewritten != n*st.perItem || seq.dirty {
				t.Fatalf("%s[%d]: %+v for %d streamed bytes, dirty %v", el.name, n, seq.ci, len(seq.data), seq.dirty)
			}
			checkRendered(t, el.build(n), []byte(seq.data))
		}

		n := 3*per + 7
		tail := 1 + (n+per-1)/per + 1
		for _, failAt := range []int{1, 2, tail} {
			for _, pipelined := range []bool{false, true} {
				o := run(el.build(n), failAt, pipelined)
				if o.err == nil || o.stats != (Stats{}) || !o.dirty {
					t.Fatalf("%s, sink failing at chunk %d (pipelined %v): err %v, stats %+v, dirty %v",
						el.name, failAt, pipelined, o.err, o.stats, o.dirty)
				}
			}
		}
	}
}

func TestPipelinedOverlayRepeatSends(t *testing.T) {
	m := wire.NewMessage("urn:t", "big")
	arr := m.AddDoubleArray("v", 500)
	for i := 0; i < 500; i++ {
		arr.Set(i, 1)
	}
	pip := &pipeSink{}
	s := NewStub(overlayConfig(), &captureSink{})
	for round := 0; round < 4; round++ {
		for i := 0; i < 500; i++ {
			arr.Set(i, float64(i+round))
		}
		if _, err := s.CallOverlayPipelined(m, pip); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkRendered(t, m, pip.data)
	}
}

func TestPipelinedOverlayWriterError(t *testing.T) {
	m := wire.NewMessage("urn:t", "big")
	arr := m.AddDoubleArray("v", 2000)
	for i := 0; i < 2000; i++ {
		arr.Set(i, 1)
	}
	pip := &pipeSink{failAt: 3}
	s := NewStub(overlayConfig(), &captureSink{})
	if _, err := s.CallOverlayPipelined(m, pip); err == nil {
		t.Fatal("writer error not propagated")
	}
}

func TestPipelinedOverlayUnsupportedShape(t *testing.T) {
	m := wire.NewMessage("urn:t", "op")
	m.AddInt("x", 1)
	s := NewStub(overlayConfig(), &captureSink{})
	if _, err := s.CallOverlayPipelined(m, &pipeSink{}); err == nil {
		t.Fatal("unsupported shape accepted")
	}
}
