package replica

// LRU is the one recency list in the tree: a map-indexed intrusive
// doubly-linked list with O(1) touch, lookup, insert and tail removal.
// Touching or reading never allocates — nodes are allocated only on
// insert, which keeps the client pool's steady state at zero allocs per
// call. Not safe for concurrent use; callers hold their own shard or
// entry lock.
type LRU[K comparable, V any] struct {
	index      map[K]*node[K, V]
	head, tail *node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	value      V
	prev, next *node[K, V]
}

// NewLRU returns an empty list.
func NewLRU[K comparable, V any]() *LRU[K, V] {
	return &LRU[K, V]{index: make(map[K]*node[K, V])}
}

// Len reports the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.index) }

// Get returns the value for key and marks it most recently used.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	n, ok := l.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.value, true
}

// PushFront inserts key at the front, or updates and touches it if
// already present.
func (l *LRU[K, V]) PushFront(key K, value V) {
	if n, ok := l.index[key]; ok {
		n.value = value
		l.moveToFront(n)
		return
	}
	n := &node[K, V]{key: key, value: value}
	l.index[key] = n
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

// Remove deletes key, reporting whether it was present.
func (l *LRU[K, V]) Remove(key K) (V, bool) {
	n, ok := l.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.unlink(n)
	delete(l.index, key)
	return n.value, true
}

// Tail returns the least recently used key without removing it.
func (l *LRU[K, V]) Tail() (K, bool) {
	if l.tail == nil {
		var zero K
		return zero, false
	}
	return l.tail.key, true
}

// RemoveTail evicts and returns the least recently used entry.
func (l *LRU[K, V]) RemoveTail() (K, V, bool) {
	n := l.tail
	if n == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	l.unlink(n)
	delete(l.index, n.key)
	return n.key, n.value, true
}

// fromTail visits entries least-recently-used first until yield returns
// false. The list must not be mutated during the walk.
func (l *LRU[K, V]) fromTail(yield func(key K, value V) bool) {
	for n := l.tail; n != nil; n = n.prev {
		if !yield(n.key, n.value) {
			return
		}
	}
}

// FromFront visits entries most-recently-used first until yield returns
// false. The list must not be mutated during the walk.
func (l *LRU[K, V]) FromFront(yield func(key K, value V) bool) {
	for n := l.head; n != nil; n = n.next {
		if !yield(n.key, n.value) {
			return
		}
	}
}

func (l *LRU[K, V]) moveToFront(n *node[K, V]) {
	if l.head == n {
		return
	}
	l.unlinkOnly(n)
	n.prev = nil
	n.next = l.head
	l.head.prev = n
	l.head = n
}

func (l *LRU[K, V]) unlink(n *node[K, V]) {
	l.unlinkOnly(n)
	n.prev, n.next = nil, nil
}

func (l *LRU[K, V]) unlinkOnly(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
}
