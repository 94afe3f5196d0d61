// Package evq is the simulators' one event queue: a value-typed binary
// min-heap of payloads keyed by simulated time.
//
// Pop order is a total order — (time, push order) — because the queue
// stamps every push with its own sequence number. Two events due at the
// same cycle therefore leave in the order they were scheduled, whatever
// the heap's internal array layout, so a simulation's output never
// depends on how the heap happens to be arranged.
package evq

// item is one queued payload with its ordering key. The payload comes
// first so a zero-size payload adds no trailing padding.
type item[P any] struct {
	p   P
	at  uint64
	seq uint64
}

// Queue is a min-heap ordered by (time, push order). The zero value is an
// empty queue. Items are stored by value, so pushing and popping allocate
// nothing once the backing array has grown to the peak queue length.
type Queue[P any] struct {
	h   []item[P]
	seq uint64
}

// Len returns the number of queued items.
func (q *Queue[P]) Len() int { return len(q.h) }

// Push queues p at time at.
func (q *Queue[P]) Push(at uint64, p P) {
	q.seq++
	q.h = append(q.h, item[P]{at: at, seq: q.seq, p: p})
	h := q.h
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !h[i].less(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// Peek returns the earliest item without removing it. The queue must not
// be empty.
func (q *Queue[P]) Peek() (at uint64, p P) {
	return q.h[0].at, q.h[0].p
}

// Pop removes and returns the earliest item. The queue must not be empty.
func (q *Queue[P]) Pop() (at uint64, p P) {
	h := q.h
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = item[P]{} // drop the payload's references
	h = h[:n]
	q.h = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].less(&h[l]) {
			m = r
		}
		if !h[m].less(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top.at, top.p
}

// Each calls fn for every queued item, in heap (not time) order. It is
// for inspection — invariant checks and live snapshots — not scheduling.
func (q *Queue[P]) Each(fn func(at uint64, p P)) {
	for i := range q.h {
		fn(q.h[i].at, q.h[i].p)
	}
}

func (a *item[P]) less(b *item[P]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
