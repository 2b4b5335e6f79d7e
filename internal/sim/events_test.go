package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventQOrdering checks the 4-ary heap pops events in strict (t, seq)
// order regardless of push order — the total order the engine's determinism
// rests on — and hands back each event's own operands from the recycled
// slab.
func TestEventQOrdering(t *testing.T) {
	var q eventQ
	x := uint64(0x9e3779b97f4a7c15)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % 997)
	}
	const n = 4000
	for i := 0; i < n; i++ {
		q.push(next(), int64(i), event{val: int64(i)})
	}
	if q.len() != n {
		t.Fatalf("len = %d, want %d", q.len(), n)
	}
	last, _ := q.pop()
	for i := 1; i < n; i++ {
		k, ev := q.pop()
		if k.before(&last) {
			t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, k.t, k.seq, last.t, last.seq)
		}
		if ev.val != k.seq {
			t.Fatalf("pop %d: event seq %d carries the operands of event %d", i, k.seq, ev.val)
		}
		// Interleave pushes with pops so freed slots are reused.
		if i%3 == 0 {
			q.push(k.t+1000, n+int64(i), event{val: n + int64(i)})
		}
		last = k
	}
	for q.len() > 0 {
		k, ev := q.pop()
		if k.before(&last) || ev.val != k.seq {
			t.Fatalf("tail pop (%d,%d) out of order or with the wrong operands (%d)", k.t, k.seq, ev.val)
		}
		last = k
	}
	if len(q.ops) > n {
		t.Errorf("operand slab grew to %d slots for at most %d pending events", len(q.ops), n)
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after draining, want 0", q.len())
	}
}

// TestEngineLayout guards the sizes the drain loop's speed rests on: an
// event is copied into and out of the queue slab on every post and pop, so
// it must stay small and hold no pointer (which would also cost a GC write
// barrier per copy), and every op of every iteration is built and read at
// least once, so Op must not grow.
func TestEngineLayout(t *testing.T) {
	ev := reflect.TypeOf(event{})
	for i := 0; i < ev.NumField(); i++ {
		if f := ev.Field(i); hasPointers(f.Type) {
			t.Errorf("event field %s (%s) holds a pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("event is %d bytes, want at most 24", size)
	}
	if size := unsafe.Sizeof(Op{}); size > 120 {
		t.Errorf("Op is %d bytes, want at most 120", size)
	}
}

// hasPointers reports whether a value of type typ holds a pointer the
// garbage collector must trace.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestBusEntrySlabRecycled checks that committed bus entries return to the
// run's slab for reuse: a dependent loop keeps at most one write per
// processor in flight, so its hundreds of broadcasts must be served by a
// slab no larger than that peak, every entry must be free again after the
// run and no variable may still list a write in flight.
func TestBusEntrySlabRecycled(t *testing.T) {
	const procs, iters = 3, 120
	m := New(Config{Processors: procs, BusLatency: 2, SyncOpCost: 1})
	v := m.NewRegVar("chain", 0)
	st, err := m.RunLoop(iters, func(ops []Op, iter int64) []Op {
		return append(ops, WaitGE(v, iter-1, "chain"), Compute(1, nil, 0, "work"), WriteVar(v, iter, "signal"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.BusBroadcasts != iters {
		t.Fatalf("%d broadcasts, want %d", st.BusBroadcasts, iters)
	}
	if len(m.entries) > procs {
		t.Errorf("bus entry slab grew to %d entries for at most %d writes in flight", len(m.entries), procs)
	}
	if len(m.entryFree) != len(m.entries) {
		t.Errorf("%d of %d bus entries free after the run, want all", len(m.entryFree), len(m.entries))
	}
	if r := m.vars[v].reg; len(r.pend) != 0 || len(r.waiters) != 0 {
		t.Errorf("after the run %d writes are in flight and %d waiters parked, want none", len(r.pend), len(r.waiters))
	}
}
