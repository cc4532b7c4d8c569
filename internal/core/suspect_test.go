package core

import (
	"errors"
	"net"
	"testing"

	"bsoap/internal/wire"
)

// flakySink fails the sends whose (1-based) index is in failOn, and
// records every successful send like captureSink.
type flakySink struct {
	captureSink
	n      int
	failOn map[int]bool
}

var errFlaky = errors.New("flaky sink: send failed")

func (f *flakySink) Send(bufs net.Buffers) error {
	f.n++
	if f.failOn[f.n] {
		return errFlaky
	}
	return f.captureSink.Send(bufs)
}

// TestSuspectTemplateForcesDegradedFTS exercises the graceful-degradation
// contract: a failed send poisons the template, the next call is a
// degraded first-time send with correct bytes, and the engine then warms
// back up to content matches.
func TestSuspectTemplateForcesDegradedFTS(t *testing.T) {
	sink := &flakySink{failOn: map[int]bool{3: true}}
	s := NewStub(Config{}, sink)

	m := wire.NewMessage("urn:t", "op")
	arr := m.AddDoubleArray("values", 8)
	for i := 0; i < 8; i++ {
		arr.Set(i, float64(i))
	}
	m.ClearDirty()

	// Send 1: first-time; send 2: structural match.
	if ci, err := s.Call(m); err != nil || ci.Match != FirstTime {
		t.Fatalf("send 1: ci=%+v err=%v", ci, err)
	}
	arr.Set(0, 9) // same serialized width as the initial "0"
	if ci, err := s.Call(m); err != nil || ci.Match != StructuralMatch {
		t.Fatalf("send 2: ci=%+v err=%v", ci, err)
	}

	// Send 3 fails mid-flight: dirty bits must survive and the template
	// must become suspect.
	arr.Set(1, 7.25)
	if _, err := s.Call(m); !errors.Is(err, errFlaky) {
		t.Fatalf("send 3: err=%v, want flaky failure", err)
	}
	if !m.AnyDirty() {
		t.Fatal("dirty bits cleared by a failed send")
	}

	// Send 4: degraded first-time send, not a diff against the poisoned
	// template.
	ci, err := s.Call(m)
	if err != nil {
		t.Fatalf("send 4: %v", err)
	}
	if ci.Match != FirstTime || !ci.Degraded {
		t.Fatalf("send 4: match=%v degraded=%v, want degraded first-time", ci.Match, ci.Degraded)
	}
	checkRendered(t, m, sink.data)
	if got := s.Stats().DegradedFTS; got != 1 {
		t.Fatalf("DegradedFTS=%d, want 1", got)
	}
	if n := s.store.templateCount(); n != 1 {
		t.Fatalf("TemplateCount=%d after degraded FTS, want 1 (old template dropped)", n)
	}

	// Send 5: the rebuilt template serves an ordinary content match.
	if ci, err := s.Call(m); err != nil || ci.Match != ContentMatch {
		t.Fatalf("send 5: ci=%+v err=%v", ci, err)
	}
	checkRendered(t, m, sink.data)
}

// TestSuspectFirstTimeSend covers the same degradation when the very
// first send of a structure fails: the recorded template must not be
// trusted either.
func TestSuspectFirstTimeSend(t *testing.T) {
	sink := &flakySink{failOn: map[int]bool{1: true}}
	s := NewStub(Config{}, sink)

	m := wire.NewMessage("urn:t", "op")
	r := m.AddInt("x", 5)
	m.ClearDirty()

	if _, err := s.Call(m); !errors.Is(err, errFlaky) {
		t.Fatalf("send 1: err=%v, want flaky failure", err)
	}
	r.Set(123456)
	ci, err := s.Call(m)
	if err != nil {
		t.Fatalf("send 2: %v", err)
	}
	if ci.Match != FirstTime || !ci.Degraded {
		t.Fatalf("send 2: match=%v degraded=%v, want degraded first-time", ci.Match, ci.Degraded)
	}
	checkRendered(t, m, sink.data)
}
