package core

import (
	"testing"

	"bsoap/internal/replica"
	"bsoap/internal/wire"
)

// TestStoreLookupMovesToFront pins the store's LRU behaviour: with an
// operation's cap of templates held, one structure more evicts the least
// recently used one, and a call that reuses a template refreshes it.
func TestStoreLookupMovesToFront(t *testing.T) {
	const cap = replica.TemplatesPerOp
	s := NewStub(Config{}, &captureSink{})

	mk := func(n int) *wire.Message {
		m := wire.NewMessage("urn:t", "op")
		m.AddDoubleArray("v", n)
		return m
	}
	msgs := make([]*wire.Message, cap+1)
	for i := range msgs {
		msgs[i] = mk(i + 1)
	}
	// The first shape is touched after all the others, so the second is
	// the least recently used when the last arrives.
	order := append(append(msgs[:cap:cap], msgs[0]), msgs[cap])
	for _, m := range order {
		if _, err := s.Call(m); err != nil {
			t.Fatal(err)
		}
	}

	if s.Template("op", msgs[1].Signature()) != nil {
		t.Error("the second shape should have been evicted as least recently used")
	}
	for _, i := range []int{0, 2, cap} {
		if s.Template("op", msgs[i].Signature()) == nil {
			t.Errorf("shape %d should have survived", i)
		}
	}
	if n := s.store.templateCount(); n != cap {
		t.Errorf("TemplateCount = %d, want %d", n, cap)
	}
}

// templateCount reports the number of stored templates (all operations).
func (st *Store) templateCount() int {
	n := 0
	for _, l := range st.byOp {
		for _, t := range l {
			if t != nil {
				n++
			}
		}
	}
	return n
}
