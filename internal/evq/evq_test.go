package evq

import (
	"sort"
	"testing"

	"repro/internal/simrand"
)

// TestEventQueueMatchesSortedReference interleaves pushes and pops with
// heavy time ties and checks every pop against a stable sort of the same
// items by (time, push order).
func TestEventQueueMatchesSortedReference(t *testing.T) {
	type ref struct {
		at uint64
		id int
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := simrand.New(seed)
		var q Queue[int]
		var pending []ref
		next := 0
		now := uint64(0)
		for step := 0; step < 2000; step++ {
			if q.Len() != len(pending) {
				t.Fatalf("seed %d: Len %d, want %d", seed, q.Len(), len(pending))
			}
			if len(pending) == 0 || rng.Intn(3) != 0 {
				// Few distinct times so ties are common; never schedule in
				// the past, as the simulators never do.
				at := now + uint64(rng.Intn(4))
				q.Push(at, next)
				pending = append(pending, ref{at, next})
				next++
				continue
			}
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
			want := pending[0]
			pending = pending[1:]
			if at, id := q.Peek(); at != want.at || id != want.id {
				t.Fatalf("seed %d step %d: Peek (%d, %d), want (%d, %d)", seed, step, at, id, want.at, want.id)
			}
			at, id := q.Pop()
			if at != want.at || id != want.id {
				t.Fatalf("seed %d step %d: Pop (%d, %d), want (%d, %d)", seed, step, at, id, want.at, want.id)
			}
			now = at
		}
	}
}

// TestEventQueueTiesLeaveInPushOrder: items due at the same time pop in the
// order they were pushed, however many there are.
func TestEventQueueTiesLeaveInPushOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(uint64(7-i%2), i) // odd ids at 6, even ids at 7
	}
	var got []int
	for q.Len() > 0 {
		_, id := q.Pop()
		got = append(got, id)
	}
	for i, id := range got {
		want := 2*i + 1
		if i >= 50 {
			want = 2 * (i - 50)
		}
		if id != want {
			t.Fatalf("pop %d = %d, want %d (full order %v)", i, id, want, got)
		}
	}
}

// TestEventQueueEach visits every queued item exactly once.
func TestEventQueueEach(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(uint64(10-i), i)
	}
	q.Pop()
	seen := map[int]bool{}
	q.Each(func(at uint64, id int) {
		if at != uint64(10-id) || seen[id] {
			t.Fatalf("bad or repeated item (%d, %d)", at, id)
		}
		seen[id] = true
	})
	if len(seen) != 9 || seen[9] {
		t.Fatalf("Each saw %v, want ids 0..8", seen)
	}
}

// TestEventQueueNoAllocsAtSteadyState: once grown, pushing and popping
// moves values only.
func TestEventQueueNoAllocsAtSteadyState(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	for i := 0; i < 64; i++ {
		q.Push(uint64(i), x)
	}
	allocs := testing.AllocsPerRun(100, func() {
		at, p := q.Pop()
		q.Push(at+64, p)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per pop+push, want 0", allocs)
	}
}

func BenchmarkEventQueuePushPop(b *testing.B) {
	var q Queue[*int]
	x := new(int)
	for i := 0; i < 256; i++ {
		q.Push(uint64(i*7%256), x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, p := q.Pop()
		q.Push(at+uint64(i%512), p)
	}
}
