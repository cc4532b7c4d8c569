package replica

// DefaultTrackerCap bounds a Tracker's map before it resets wholesale:
// large enough that a steady working set never resets, small enough that
// a pathological workload cycling through fresh identities (one-shot
// operation names) cannot grow the map without bound.
const DefaultTrackerCap = 1024

// Tracker is a bounded lookup map: the server side bounds each replica's
// operation → handler table with it. When the map hits its cap it is
// reset wholesale — what it remembers is a shortcut, and forgetting it
// costs one slow lookup per key, which is far cheaper than an unbounded
// map. Not safe for concurrent use; callers hold the enclosing entry
// lock.
type Tracker[K comparable, V any] struct {
	m      map[K]V
	cap    int
	resets int64
}

// NewTracker returns a tracker bounded at capacity (DefaultTrackerCap
// if capacity <= 0).
func NewTracker[K comparable, V any](capacity int) *Tracker[K, V] {
	if capacity <= 0 {
		capacity = DefaultTrackerCap
	}
	return &Tracker[K, V]{m: make(map[K]V), cap: capacity}
}

// Lookup returns the tracked value for key.
func (t *Tracker[K, V]) Lookup(key K) (V, bool) {
	v, ok := t.m[key]
	return v, ok
}

// Note records key → value, resetting the map first if it is at
// capacity and key would grow it.
func (t *Tracker[K, V]) Note(key K, value V) {
	if len(t.m) >= t.cap {
		if _, ok := t.m[key]; !ok {
			t.m = make(map[K]V)
			t.resets++
		}
	}
	t.m[key] = value
}

// Forget removes key.
func (t *Tracker[K, V]) Forget(key K) { delete(t.m, key) }

// Len reports the number of tracked keys.
func (t *Tracker[K, V]) Len() int { return len(t.m) }

// Resets reports how many times the map has been reset at capacity.
func (t *Tracker[K, V]) Resets() int64 { return t.resets }
