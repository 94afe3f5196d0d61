package obs

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// TestEventSize pins the fixed-width event layout: args live inline, so an
// event costs its own size in the ring and nothing on the heap.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(Event{}); sz > 104 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d B, want <= 104", sz)
	}
}

// TestTracerRecordZeroAlloc checks that recording into a ring tracer — the
// flight recorder's always-on mode — allocates nothing, whether sampling
// admits the event or skips it.
func TestTracerRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	tr := NewRingTracer(AllComponents(), 64)
	tr.SampleEvery(CompMem, 1<<62) // every CompMem event is skipped

	cases := []struct {
		name string
		fn   func()
	}{
		{"instant/2args/admitted", func() {
			tr.Instant(CompFault, "resilience.timeout", 1, 100, Str(KeyKind, "lost"), U64(KeyPeer, 3))
		}},
		{"instant/2args/skipped", func() {
			tr.Instant(CompMem, "bus.getm", 1, 100, Str(KeySrc, "cache"), U64(KeyAddr, 0x40))
		}},
		{"span/2args/admitted", func() {
			tr.Span(CompOS, "lock.wait", 2, 100, 200, Str(KeyKind, "spin"), U64(KeyLock, 7))
		}},
		{"span/4args/admitted", func() {
			tr.Span(CompJVM, "gc.minor", 0, 100, 900,
				U64(KeyLiveBytes, 1), U64(KeyCopiedObjs, 2), U64(KeyFreedBytes, 3), U64(KeyWorkers, 4))
		}},
		{"span/4args/skipped", func() {
			tr.Span(CompMem, "bus.x", 0, 100, 900,
				Str(KeySrc, "memory"), U64(KeyAddr, 1), F64(KeyMagnitude, 2.5), U64(KeyPeer, 4))
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
	if tr.Ring().Total() == 0 {
		t.Fatal("no admitted event reached the ring")
	}
}

// TestArgKeyNames checks the closed key table: every key has a distinct
// exported name.
func TestArgKeyNames(t *testing.T) {
	seen := map[string]ArgKey{}
	for k := ArgKey(0); k < numArgKeys; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("key %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("keys %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if len(seen) != 14 {
		t.Fatalf("%d keys, want 14", len(seen))
	}
}

// TestArgRendering checks each value kind renders as the Chrome trace
// expects: integers and floats bare, strings quoted, in argument order.
func TestArgRendering(t *testing.T) {
	tr := NewTracer(AllComponents())
	tr.Span(CompFault, "fault.x", -1, 250, 500,
		Str(KeyKind, "db-lock-storm"), U64(KeyPeer, 2), F64(KeyMagnitude, 2.5), U64(KeyAddr, 1<<63))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"fault.x","cat":"fault","ph":"X","pid":0,"tid":-1,"ts":1.000,"dur":1.000,` +
		`"args":{"kind":"db-lock-storm","peer":2,"magnitude":2.5,"addr":9223372036854775808}}`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("rendered\n%s\nwant a line\n%s", buf.String(), want)
	}
}

// TestSetArgsRejectsOverflow checks the inline-storage limits fail loudly
// instead of dropping an annotation.
func TestSetArgsRejectsOverflow(t *testing.T) {
	for name, args := range map[string][]Arg{
		"five args":   {U64(KeyPeer, 1), U64(KeyPeer, 2), U64(KeyPeer, 3), U64(KeyPeer, 4), U64(KeyPeer, 5)},
		"two strings": {Str(KeyKind, "a"), Str(KeySrc, "b")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetArgs did not panic", name)
				}
			}()
			var e Event
			e.SetArgs(args...)
		}()
	}
}

// BenchmarkTracerRingRecord is the flight recorder's recording cost: a ring
// tracer at default sampling fed the coherence bus stream (one in
// DefaultMemSample admitted) plus one admitted osmodel lock span per op.
func BenchmarkTracerRingRecord(b *testing.B) {
	tr := NewRingTracer(AllComponents(), 1)
	tr.SetRing(NewEventRing(1 << 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := uint64(i)
		tr.Instant(CompMem, "bus.gets", i&7, at, Str(KeySrc, "cache"), U64(KeyAddr, at<<6))
		tr.Span(CompOS, "lock.wait", 16+i&7, at, at+100, Str(KeyKind, "spin"), U64(KeyLock, at&15))
	}
}
