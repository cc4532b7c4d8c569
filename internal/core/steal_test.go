package core

import (
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

// TestStealScanLimitRespected pins the donor scan at 8 entries on each
// side of the grower: with every other field's padding drained, a donor
// 8 entries away serves the expansion and one 9 away does not, so the
// expansion shifts instead.
func TestStealScanLimitRespected(t *testing.T) {
	const n, grower = 20, 10
	for _, c := range []struct {
		away  int
		taken bool
	}{{8, true}, {9, false}, {-8, true}, {-9, false}} {
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
		// Drain every pad but the donor's by filling each field exactly.
		for i := 0; i < n; i++ {
			if i != grower+c.away {
				arr.Set(i, 1.23456789) // 10 chars: fills the field, no expansion
			}
		}
		if _, err := s.Call(m); err != nil {
			t.Fatal(err)
		}
		arr.Set(grower, 1.234567890123) // 14 chars: a deficit of 4
		ci, err := s.Call(m)
		if err != nil {
			t.Fatal(err)
		}
		if c.taken && (ci.Steals != 1 || ci.Shifts != 0) || !c.taken && (ci.Steals != 0 || ci.Shifts != 1) {
			t.Fatalf("donor %+d entries away: %+v, want a steal %v", c.away, ci, c.taken)
		}
		checkRendered(t, m, sink.data)
		checkTemplate(t, s, m)
	}
}
