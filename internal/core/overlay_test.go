package core

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"bsoap/internal/chunk"
	"bsoap/internal/soapenv"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
)

// captureStream records a streamed message and its portion boundaries.
type captureStream struct {
	data     []byte
	portions int
	begun    bool
	ended    bool
	failAt   int // fail on the Nth StreamChunk (1-based); 0 = never
}

func (c *captureStream) BeginStream() error {
	c.begun = true
	c.data = c.data[:0]
	c.portions = 0
	c.ended = false
	return nil
}

func (c *captureStream) StreamChunk(p []byte) error {
	c.portions++
	if c.failAt != 0 && c.portions == c.failAt {
		return errors.New("stream broken")
	}
	c.data = append(c.data, p...)
	return nil
}

func (c *captureStream) EndStream() error {
	c.ended = true
	return nil
}

// Send satisfies Sink so the same object can be handed to NewStub; the
// overlay tests never use the non-streaming path.
func (c *captureStream) Send(bufs net.Buffers) error {
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

func overlayConfig() Config {
	return Config{
		Chunk: chunk.Config{ChunkSize: 512},
		Width: WidthPolicy{Double: MaxWidth, Int: MaxWidth},
	}
}

func TestOverlayRendersCorrectValues(t *testing.T) {
	m := wire.NewMessage("urn:t", "bigsend")
	n := 200 // several portions at 512-byte chunks
	arr := m.AddDoubleArray("v", n)
	for i := 0; i < n; i++ {
		arr.Set(i, float64(i)+0.5)
	}
	sink := &captureStream{}
	s := NewStub(overlayConfig(), sink)
	ci, err := s.CallOverlay(m, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !sink.begun || !sink.ended {
		t.Fatal("stream not framed")
	}
	if sink.portions < 4 {
		t.Fatalf("only %d portions; overlay did not chunk", sink.portions)
	}
	if ci.ValuesRewritten != n {
		t.Fatalf("rewrote %d values, want %d", ci.ValuesRewritten, n)
	}
	if ci.Bytes != len(sink.data) {
		t.Fatalf("ci.Bytes = %d, stream got %d", ci.Bytes, len(sink.data))
	}
	checkRendered(t, m, sink.data)
}

func TestOverlayMatchesNonOverlayValues(t *testing.T) {
	build := func() *wire.Message {
		m := wire.NewMessage("urn:t", "bigsend")
		arr := m.AddDoubleArray("v", 150)
		for i := 0; i < 150; i++ {
			arr.Set(i, float64(i)*1.5)
		}
		return m
	}
	mOv, mFull := build(), build()

	ovSink := &captureStream{}
	sOv := NewStub(overlayConfig(), ovSink)
	if _, err := sOv.CallOverlay(mOv, ovSink); err != nil {
		t.Fatal(err)
	}
	fullSink := &captureSink{}
	sFull := NewStub(overlayConfig(), fullSink)
	if _, err := sFull.Call(mFull); err != nil {
		t.Fatal(err)
	}
	ovLeaves := leafTexts(t, ovSink.data)
	fullLeaves := leafTexts(t, fullSink.data)
	if len(ovLeaves) != len(fullLeaves) {
		t.Fatalf("leaf counts differ: %d vs %d", len(ovLeaves), len(fullLeaves))
	}
	for i := range ovLeaves {
		if ovLeaves[i] != fullLeaves[i] {
			t.Fatalf("leaf %d: overlay %q vs full %q", i, ovLeaves[i], fullLeaves[i])
		}
	}
}

func TestOverlayRepeatSendsReuseFrames(t *testing.T) {
	m := wire.NewMessage("urn:t", "bigsend")
	n := 100
	arr := m.AddDoubleArray("v", n)
	for i := 0; i < n; i++ {
		arr.Set(i, 1)
	}
	sink := &captureStream{}
	s := NewStub(overlayConfig(), sink)
	if _, err := s.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		arr.Set(i, float64(i)+0.25)
	}
	if _, err := s.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)
}

func TestOverlayMIOArray(t *testing.T) {
	m := wire.NewMessage("urn:t", "meshsend")
	n := 60
	arr := m.AddStructArray("mios", mioType(), n)
	for i := 0; i < n; i++ {
		arr.SetInt(i, 0, int32(i))
		arr.SetInt(i, 1, int32(-i))
		arr.SetDouble(i, 2, float64(i)/3)
	}
	sink := &captureStream{}
	s := NewStub(overlayConfig(), sink)
	if _, err := s.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)
}

func TestOverlayWithLeadingScalars(t *testing.T) {
	m := wire.NewMessage("urn:t", "headersend")
	m.AddInt("iteration", 7)
	m.AddDouble("tolerance", 0.001)
	arr := m.AddDoubleArray("v", 40)
	for i := 0; i < 40; i++ {
		arr.Set(i, float64(i))
	}
	sink := &captureStream{}
	s := NewStub(overlayConfig(), sink)
	if _, err := s.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)
	if !strings.Contains(string(sink.data), `<iteration xsi:type="xsd:int">7</iteration>`) {
		t.Fatal("leading scalar missing from head")
	}
}

func TestOverlayLastPartialPortion(t *testing.T) {
	m := wire.NewMessage("urn:t", "bigsend")
	// Pick a count that does not divide evenly into portions.
	n := 37
	arr := m.AddDoubleArray("v", n)
	for i := 0; i < n; i++ {
		arr.Set(i, float64(i))
	}
	cfg := overlayConfig()
	cfg.Chunk.ChunkSize = 300 // ~9 items of 31 bytes per portion
	sink := &captureStream{}
	s := NewStub(cfg, sink)
	if _, err := s.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}
	got := leafTexts(t, sink.data)
	if len(got) != n {
		t.Fatalf("streamed %d leaves, want %d", len(got), n)
	}
	checkRendered(t, m, sink.data)
}

func TestOverlayUnsupportedShapes(t *testing.T) {
	sink := &captureStream{}

	// No array parameter.
	m := wire.NewMessage("urn:t", "op")
	m.AddInt("x", 1)
	s := NewStub(overlayConfig(), sink)
	if _, err := s.CallOverlay(m, sink); !errors.Is(err, errOverlayUnsupported) {
		t.Fatalf("scalar-only message: err = %v", err)
	}

	// Exact-width policy cannot be overlaid.
	m2 := wire.NewMessage("urn:t", "op")
	m2.AddDoubleArray("v", 10)
	s2 := NewStub(Config{}, sink)
	if _, err := s2.CallOverlay(m2, sink); !errors.Is(err, errOverlayUnsupported) {
		t.Fatalf("exact widths: err = %v", err)
	}

	// String arrays are unbounded.
	m3 := wire.NewMessage("urn:t", "op")
	m3.AddStringArray("s", 4)
	s3 := NewStub(overlayConfig(), sink)
	if _, err := s3.CallOverlay(m3, sink); !errors.Is(err, errOverlayUnsupported) {
		t.Fatalf("string array: err = %v", err)
	}
}

func TestOverlayStreamError(t *testing.T) {
	m := wire.NewMessage("urn:t", "bigsend")
	arr := m.AddDoubleArray("v", 100)
	for i := 0; i < 100; i++ {
		arr.Set(i, float64(i))
	}
	sink := &captureStream{failAt: 2}
	s := NewStub(overlayConfig(), sink)
	if _, err := s.CallOverlay(m, sink); err == nil {
		t.Fatal("stream error not propagated")
	}
}

func TestOverlayIntermediateFixedWidth(t *testing.T) {
	m := wire.NewMessage("urn:t", "bigsend")
	arr := m.AddDoubleArray("v", 50)
	for i := 0; i < 50; i++ {
		arr.Set(i, 1.5)
	}
	cfg := overlayConfig()
	cfg.Width = WidthPolicy{Double: 18}
	sink := &captureStream{}
	s := NewStub(cfg, sink)
	if _, err := s.CallOverlay(m, sink); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, m, sink.data)

	// A 24-char value cannot fit an 18-char overlay frame.
	arr.Set(0, -1.7976931348623157e+308)
	if _, err := s.CallOverlay(m, sink); err == nil {
		t.Fatal("overflowing value accepted by fixed-width overlay")
	}
}

// TestOverlayPortionsAndSinkFailures streams arrays of lengths around
// the portion size, for a scalar and a struct element, and checks the
// stream, its chunk boundaries, the CallInfo and the message's dirty
// bits. Then a sink failing at the head, the second chunk or the tail
// must fail the call, count nothing, keep the message's dirty bits for
// a retry, and end the stream where it failed: no chunk after the
// failed one, and no EndStream on a sink that failed.
func TestOverlayPortionsAndSinkFailures(t *testing.T) {
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
	for _, el := range elems {
		st, err := buildOverlayState(el.build(1), cfg, &scratch{})
		if err != nil {
			t.Fatal(err)
		}
		per := st.itemsPerMbuf
		chunks := func(n int) int { return 1 + (n+per-1)/per + 1 } // head, portions, tail
		for _, n := range []int{1, per - 1, per, per + 1, 3*per + 7} {
			m := el.build(n)
			sink := &captureStream{}
			s := NewStub(cfg, sink)
			ci, err := s.CallOverlay(m, sink)
			if err != nil {
				t.Fatalf("%s[%d]: %v", el.name, n, err)
			}
			if sink.portions != chunks(n) || !sink.ended {
				t.Fatalf("%s[%d]: %d chunks, ended %v; want %d, ended", el.name, n, sink.portions, sink.ended, chunks(n))
			}
			if ci.Bytes != len(sink.data) || ci.ValuesRewritten != n*st.perItem || ci.Match != StructuralMatch || m.AnyDirty() {
				t.Fatalf("%s[%d]: %+v for %d streamed bytes, dirty %v", el.name, n, ci, len(sink.data), m.AnyDirty())
			}
			checkRendered(t, el.build(n), sink.data)
		}

		n := 3*per + 7
		for _, failAt := range []int{1, 2, chunks(n)} {
			m := el.build(n)
			sink := &captureStream{failAt: failAt}
			s := NewStub(cfg, sink)
			if _, err := s.CallOverlay(m, sink); err == nil || s.Stats() != (Stats{}) || !m.AnyDirty() ||
				sink.portions != failAt || sink.ended {
				t.Fatalf("%s, sink failing at chunk %d: err %v, stats %+v, dirty %v, %d chunks, ended %v",
					el.name, failAt, err, s.Stats(), m.AnyDirty(), sink.portions, sink.ended)
			}
		}
	}
}

// TestOverlayFailureEndsStream drives the overlay over a real
// connection into a value too wide for its fixed field, two portions
// into the stream. The failed call must still end the chunked body: the
// server answers the truncated envelope with a 500, and the same Sender
// then carries a plain Call and a second overlay without redialing.
func TestOverlayFailureEndsStream(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		var whole, truncated atomic.Int64
		srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
			Respond: true,
			Handler: func(req *transport.Request) ([]byte, error) {
				if !bytes.HasSuffix(req.Body, []byte(soapenv.EnvelopeEnd)) {
					truncated.Add(1)
					return nil, errors.New("truncated envelope")
				}
				whole.Add(1)
				return nil, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sender, err := transport.Dial(srv.Addr(), transport.SenderOptions{
			ExpectResponse: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sender.Close()

		s := NewStub(Config{Width: WidthPolicy{Double: 6}}, sender)
		m := wire.NewMessage("urn:t", "big")
		arr := m.AddDoubleArray("v", 5000)
		for i := 0; i < arr.Len(); i++ {
			arr.Set(i, 0.5)
		}
		arr.Set(4000, 1234567.25) // ten characters in a six-character field
		if _, err := s.CallOverlay(m, sender); err == nil || !strings.Contains(err.Error(), "wider") {
			t.Fatalf("overlay error = %v, want the width error", err)
		}
		if !m.AnyDirty() || s.Stats().Calls != 0 {
			t.Fatal("failed overlay cleared dirty bits or was counted")
		}

		plain := wire.NewMessage("urn:t", "small")
		plain.AddInt("n", 7)
		if _, err := s.Call(plain); err != nil {
			t.Fatalf("plain call after the failed overlay: %v", err)
		}
		arr.Set(4000, 2.5)
		if _, err := s.CallOverlay(m, sender); err != nil {
			t.Fatalf("second overlay: %v", err)
		}
		if w, tr := whole.Load(), truncated.Load(); w != 2 || tr != 1 {
			t.Fatalf("server saw %d whole and %d truncated bodies, want 2 and 1", w, tr)
		}
	})
}
