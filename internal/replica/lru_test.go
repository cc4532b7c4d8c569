package replica

import "testing"

func TestLRUOrderAndTouch(t *testing.T) {
	l := NewLRU[string, int]()
	l.PushFront("a", 1)
	l.PushFront("b", 2)
	l.PushFront("c", 3)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if k, _ := l.Tail(); k != "a" {
		t.Fatalf("tail = %q, want a", k)
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	if k, _ := l.Tail(); k != "b" {
		t.Fatalf("tail after touch = %q, want b", k)
	}
	if v, ok := l.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d,%v", v, ok)
	}
	if k, _ := l.Tail(); k != "c" {
		t.Fatalf("tail after Get(b) = %q, want c", k)
	}
}

func TestLRURemoveAndWalks(t *testing.T) {
	l := NewLRU[string, int]()
	for i, k := range []string{"a", "b", "c", "d"} {
		l.PushFront(k, i)
	}
	if _, ok := l.Remove("c"); !ok {
		t.Fatal("Remove(c) missed")
	}
	if _, ok := l.Remove("c"); ok {
		t.Fatal("Remove(c) twice should miss")
	}
	var fromTail, fromFront []string
	l.fromTail(func(k string, _ int) bool { fromTail = append(fromTail, k); return true })
	l.FromFront(func(k string, _ int) bool { fromFront = append(fromFront, k); return true })
	if got := join(fromTail); got != "a,b,d" {
		t.Fatalf("FromTail = %s", got)
	}
	if got := join(fromFront); got != "d,b,a" {
		t.Fatalf("FromFront = %s", got)
	}
	// Early-exit walks.
	n := 0
	l.fromTail(func(string, int) bool { n++; return false })
	l.FromFront(func(string, int) bool { n++; return false })
	if n != 2 {
		t.Fatalf("early-exit walks visited %d entries, want 2", n)
	}
	// Drain through RemoveTail.
	var drained []string
	for {
		k, _, ok := l.RemoveTail()
		if !ok {
			break
		}
		drained = append(drained, k)
	}
	if got := join(drained); got != "a,b,d" {
		t.Fatalf("drain order = %s", got)
	}
	if l.Len() != 0 {
		t.Fatalf("Len after drain = %d", l.Len())
	}
	if _, ok := l.Tail(); ok {
		t.Fatal("Tail on empty list reported ok")
	}
	if _, _, ok := l.RemoveTail(); ok {
		t.Fatal("RemoveTail on empty list reported ok")
	}
	if _, ok := l.Get("a"); ok {
		t.Fatal("Get on empty list reported ok")
	}
}

func TestLRUPushFrontUpdatesExisting(t *testing.T) {
	l := NewLRU[string, int]()
	l.PushFront("a", 1)
	l.PushFront("b", 2)
	l.PushFront("a", 10)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if k, _ := l.Tail(); k != "b" {
		t.Fatalf("tail = %q, want b", k)
	}
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
}

func TestLRUGetDoesNotAllocate(t *testing.T) {
	l := NewLRU[int, int]()
	for i := 0; i < 64; i++ {
		l.PushFront(i, i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Get(13)
		l.Get(57)
		l.Tail()
	})
	if allocs != 0 {
		t.Fatalf("warm-path LRU ops allocate: %v allocs/op", allocs)
	}
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
