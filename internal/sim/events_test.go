package sim

import (
	"reflect"
	"testing"
)

// TestEventQOrdering drives the queue the way the engine does, on seeded
// random streams, against a reference that pops the pending event least in
// (t, seq): pushes are never due before the last pop, and pops interleave
// with pushes. The streams post zero-delay events, events exactly W-1 and
// W cycles ahead and events far past W, and let overflow and wheel events
// fall due at the same time. The queue must pop the reference's (t, seq,
// operands) sequence exactly, and its slab must never outgrow the peak of
// events pending on the wheel.
func TestEventQOrdering(t *testing.T) {
	var zero, edge, over, far, shared int
	for seed := uint64(1); seed <= 24; seed++ {
		var (
			q        eventQ
			ref      []evKey
			seq, now int64
			peak     int
		)
		q.reserve(4)
		overAt := map[int64]int{} // overflow events pending per time
		x := seed * 0x9e3779b97f4a7c15
		rnd := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		for step := 0; step < 3000; step++ {
			if len(ref) > 0 && rnd(5) < 2 {
				tm, sq, ev := q.pop()
				best := 0
				for i := range ref {
					if ref[i].before(&ref[best]) {
						best = i
					}
				}
				want := ref[best]
				ref = append(ref[:best], ref[best+1:]...)
				if tm != want.t || sq != want.seq || ev != want.ev {
					t.Fatalf("seed %d step %d: popped (%d, %d, %+v), want (%d, %d, %+v)",
						seed, step, tm, sq, ev, want.t, want.seq, want.ev)
				}
				if overAt[tm] > 0 {
					overAt[tm]--
				}
				now = tm
				continue
			}
			var d int64
			switch r := rnd(16); {
			case r < 4:
				d, zero = 0, zero+1
			case r < 10:
				d = int64(1 + rnd(6))
			case r == 10:
				d, edge = wheelSize-1, edge+1
			case r == 11:
				d, edge = wheelSize, edge+1
			case r == 12:
				d, far = int64(wheelSize+1+rnd(5*wheelSize)), far+1
			default:
				d = int64(rnd(wheelSize))
			}
			tm := now + d
			if d >= wheelSize {
				overAt[tm]++
				over++
			} else if overAt[tm] > 0 {
				shared++
			}
			ev := event{val: int64(rnd(1 << 20)), p: int32(rnd(8)), arg: int32(rnd(64)), kind: evKind(rnd(12))}
			q.push(tm, seq, ev)
			ref = append(ref, evKey{t: tm, seq: seq, ev: ev})
			seq++
			peak = max(peak, q.queued)
			if q.len() != len(ref) {
				t.Fatalf("seed %d step %d: len = %d, want %d", seed, step, q.len(), len(ref))
			}
			if len(q.slab) > peak {
				t.Fatalf("seed %d step %d: slab grew to %d entries for at most %d pending wheel events",
					seed, step, len(q.slab), peak)
			}
		}
	}
	if zero == 0 || edge == 0 || over == 0 || far == 0 || shared == 0 {
		t.Errorf("streams missed a case: %d zero-delay, %d at W-1 or W, %d overflow, %d far, %d overflow/wheel ties",
			zero, edge, over, far, shared)
	}
}

// TestEngineLayout guards the sizes and pointer-freedom the drain loop's
// speed rests on. An event is copied into and out of the queue on every
// post and pop, and a wheel entry is written on every post, so both must
// stay small and hold no pointer (which would cost a GC write barrier per
// copy and a scan of the slab). Every op of every iteration is built and
// read at least once, so Op must not grow, and it holds no pointer either:
// op buffers are never scanned and filling an op needs no write barrier.
func TestEngineLayout(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{
		{event{}, 24},
		{wheelEntry{}, 32},
		{Op{}, 88},
	} {
		typ := reflect.TypeOf(c.v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); hasPointers(f.Type) {
				t.Errorf("%s field %s (%s) holds a pointer", typ.Name(), f.Name, f.Type)
			}
		}
		if size := typ.Size(); size > c.size {
			t.Errorf("%s is %d bytes, want at most %d", typ.Name(), size, c.size)
		}
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
	chain, work, signal := m.Text("chain"), m.Text("work"), m.Text("signal")
	st, err := m.RunLoop(iters, func(ops []Op, iter int64) []Op {
		return append(ops, WaitGE(v, iter-1, chain), Compute(1, 0, 0, work), WriteVar(v, iter, signal))
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
	if r := m.regs[m.vars[v].reg]; len(r.pend) != 0 || len(r.waiters) != 0 {
		t.Errorf("after the run %d writes are in flight and %d waiters parked, want none", len(r.pend), len(r.waiters))
	}
}
