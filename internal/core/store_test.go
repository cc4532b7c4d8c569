package core

import (
	"testing"

	"bsoap/internal/wire"
)

// TestStoreLookupMovesToFront pins the LRU behaviour the pool relies on:
// with two templates per operation, a third structure evicts the least
// recently used one, and a call that reuses a template refreshes it.
func TestStoreLookupMovesToFront(t *testing.T) {
	s := NewStub(Config{MaxTemplatesPerOp: 2}, &captureSink{})

	mk := func(n int) *wire.Message {
		m := wire.NewMessage("urn:t", "op")
		m.AddDoubleArray("v", n)
		return m
	}
	a, b, c := mk(1), mk(2), mk(3)
	for _, m := range []*wire.Message{a, b, a, c} { // a touched after b
		if _, err := s.Call(m); err != nil {
			t.Fatal(err)
		}
	}

	if s.Template("op", b.Signature()) != nil {
		t.Error("b should have been evicted as least recently used")
	}
	if s.Template("op", a.Signature()) == nil || s.Template("op", c.Signature()) == nil {
		t.Error("a and c should have survived")
	}
	if n := s.Store().TemplateCount(); n != 2 {
		t.Errorf("TemplateCount = %d, want 2", n)
	}
}
