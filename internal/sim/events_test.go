package sim

import "testing"

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

// TestRemovePendReleasesTailSlot pins the removePend fix: the vacated
// backing-array slot must not keep pointing at the removed *pending (the
// old append-shift delete pinned freed entries for the run's lifetime), and
// removed entries must reach the freelist for reuse.
func TestRemovePendReleasesTailSlot(t *testing.T) {
	m := New(Config{Processors: 3, BusLatency: 4, SyncOpCost: 1})
	v := m.NewRegVar("v", 0)
	_, err := m.RunProcesses([][]Op{
		{WriteVar(v, 1, "w1")},
		{WriteVar(v, 2, "w2")},
		{WriteVar(v, 3, "w3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	sv := m.vars[v].reg
	if len(sv.pend) != 0 {
		t.Fatalf("%d pend entries after the run, want 0", len(sv.pend))
	}
	// Three broadcasts queued at once, so the backing array held >= 2
	// entries; every vacated slot must be nil.
	if cap(sv.pend) < 2 {
		t.Fatalf("pend backing capacity %d; the scenario should have queued concurrent writes", cap(sv.pend))
	}
	for i, pe := range sv.pend[:cap(sv.pend)] {
		if pe != nil {
			t.Errorf("pend backing slot %d still retains %+v", i, *pe)
		}
	}
	if len(m.pendFree) == 0 {
		t.Error("no pending entries reached the freelist")
	}
}

// TestWaiterDrainReleasesTailSlots pins the in-place waiter drain: after a
// commit releases waiters, the survivors are compacted over the old slots
// and the vacated tail is nil-ed, so the backing array does not retain
// released *blockedWait records.
func TestWaiterDrainReleasesTailSlots(t *testing.T) {
	m := New(Config{Processors: 4, BusLatency: 1, SyncOpCost: 1})
	v := m.NewRegVar("gate", 0)
	st, err := m.RunProcesses([][]Op{
		{Compute(3, nil, 0, "work"), WriteVar(v, 3, "raise")},
		{WaitGE(v, 1, "w1")},
		{WaitGE(v, 2, "w2")},
		{WaitGE(v, 3, "w3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckConservation(); err != nil {
		t.Error(err)
	}
	sv := m.vars[v].reg
	if len(sv.waiters) != 0 {
		t.Fatalf("%d waiters after the run, want 0", len(sv.waiters))
	}
	if cap(sv.waiters) < 3 {
		t.Fatalf("waiter backing capacity %d, want >= 3 (all three waiters parked)", cap(sv.waiters))
	}
	for i, w := range sv.waiters[:cap(sv.waiters)] {
		if w != nil {
			t.Errorf("waiter backing slot %d still retains a released waiter (min %d)", i, w.min)
		}
	}
	if len(m.waitFree) == 0 {
		t.Error("no blockedWait records reached the freelist")
	}
}
