package obs

// EventRing is a fixed-capacity ring of trace events that overwrites its
// oldest entry when full — the storage behind the flight recorder's
// "last N events" window. Unlike the Tracer's linear buffer (which stops
// recording at its cap and counts drops), the ring always holds the most
// recent events, so a post-mortem dump sees the moments before the trigger
// no matter how long the run has been going.
//
// A nil *EventRing is valid and inert.
type EventRing struct {
	buf     []Event
	next    int
	full    bool
	evicted uint64
}

// NewEventRing returns a ring holding at most capacity events (minimum 1).
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]Event, 0, capacity)}
}

// Push copies an event into the ring, evicting the oldest when the ring is
// full.
func (r *EventRing) Push(e *Event) {
	if r == nil {
		return
	}
	if !r.full {
		r.buf = append(r.buf, *e)
		if len(r.buf) == cap(r.buf) {
			r.full = true
			r.next = 0
		}
		return
	}
	r.buf[r.next] = *e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.evicted++
}

// Len returns the number of events currently held.
func (r *EventRing) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Cap returns the ring's capacity.
func (r *EventRing) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Evicted returns how many events were overwritten by newer ones.
func (r *EventRing) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.evicted
}

// Total returns how many events were ever pushed.
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	return uint64(len(r.buf)) + r.evicted
}

// Events returns the held events oldest-first (a copy; the ring keeps
// recording).
func (r *EventRing) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.nextOr(len(r.buf))]...)
	return out
}

// nextOr returns the write cursor, or n before the ring first fills (the
// cursor is only meaningful once wrapping starts).
func (r *EventRing) nextOr(n int) int {
	if r.full {
		return r.next
	}
	return n
}
