package obs

// Ring is a fixed-capacity buffer that keeps the newest values pushed
// into it, evicting the oldest once full. Its storage is allocated once,
// at construction (or by Resize), so Push stores in place and never
// allocates. Ring has no lock of its own: every owner already serializes
// access under its own mutex.
type Ring[T any] struct {
	buf  []T
	next int // slot the next Push writes
	n    int // values retained: next before the first wrap, len(buf) after
}

// NewRing returns an empty ring holding at most capacity values
// (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Push stores v, evicting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// Len returns the number of values retained.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Newest returns the i-th newest value: 0 is the last pushed, Len()-1
// the oldest retained. It panics unless 0 <= i < Len().
func (r *Ring[T]) Newest(i int) T {
	if i < 0 || i >= r.n {
		panic("obs: Ring.Newest index out of range")
	}
	j := r.next - 1 - i
	if j < 0 {
		j += len(r.buf)
	}
	return r.buf[j]
}

// Snapshot returns a copy of the retained values, oldest first (empty,
// never nil, when nothing was pushed).
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, r.n)
	if r.n == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Resize changes the capacity (minimum 1), keeping the newest
// min(Len(), capacity) values.
func (r *Ring[T]) Resize(capacity int) {
	capacity = max(capacity, 1)
	keep := r.Snapshot()
	keep = keep[max(len(keep)-capacity, 0):]
	r.buf = make([]T, capacity)
	r.n = copy(r.buf, keep)
	r.next = r.n % capacity
}
