package sim

import (
	"reflect"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
)

// TestStaleReleaseDuringDrainPinned pins the waiter-drain semantics around
// the injected stale-read branch: a commit that releases several waiters at
// once schedules each release as a *deferred* event (StaleProb=1) while the
// drain is still iterating the waiter list, and one unsatisfied waiter must
// survive the drain untouched. The exact numbers below were captured from
// the engine before the in-place waiter-drain rewrite; they pin both the
// release timing (blocked interval charged through the stale lag) and the
// deterministic stale-roll coordinates (Faults.StaleReads).
func TestStaleReleaseDuringDrainPinned(t *testing.T) {
	run := func() (Stats, int64) {
		m := New(Config{Processors: 5, BusLatency: 2, SyncOpCost: 1,
			FaultPlan: fault.Plan{Seed: 11, StaleProb: 1, StaleCycles: 6}})
		v := m.NewRegVar("gate", 0)
		done := m.NewRegVar("done", 0)
		st, err := m.RunProcesses([][]Op{
			// Writer: raises the gate to 2 (releasing the >=1 and >=2
			// waiters in one commit), then to 5 after the laggards report.
			{Compute(5, nil, 0, "work"), WriteVar(v, 2, "raise2"),
				WaitGE(done, 2, "laggards"), WriteVar(v, 5, "raise5")},
			{WaitGE(v, 1, "w1"), Compute(2, nil, 0, ""), WriteVar(done, 1, "")},
			{WaitGE(v, 2, "w2"), Compute(2, nil, 0, ""), WriteVar(done, 2, "")},
			// Unsatisfied until the second raise: must survive the first
			// drain in place.
			{WaitGE(v, 5, "w5"), Compute(1, nil, 0, "")},
			{WaitGE(v, 4, "w4"), Compute(1, nil, 0, "")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckConservation(); err != nil {
			t.Errorf("conservation broken: %v", err)
		}
		return st, m.VarValue(v)
	}
	st, final := run()
	st2, final2 := run()
	if !reflect.DeepEqual(st, st2) || final != final2 {
		t.Fatalf("nondeterministic stale-release runs:\n%+v\nvs\n%+v", st, st2)
	}
	if final != 5 {
		t.Errorf("gate = %d, want 5", final)
	}
	if st.Faults.StaleReads == 0 {
		t.Fatal("StaleProb=1 injected no stale reads")
	}
	// Golden numbers from the pre-rewrite engine (deferred releases while
	// iterating; fresh `still` slice per drain). The in-place rewrite must
	// reproduce them exactly.
	want := pinnedStaleRun{
		Cycles:     st.Cycles,
		StaleReads: st.Faults.StaleReads,
		WaitSync:   [5]int64{st.Procs[0].WaitSync, st.Procs[1].WaitSync, st.Procs[2].WaitSync, st.Procs[3].WaitSync, st.Procs[4].WaitSync},
	}
	if want != pinnedStale {
		t.Errorf("stale-release run drifted from pinned behavior:\n got %+v\nwant %+v", want, pinnedStale)
	}
}

type pinnedStaleRun struct {
	Cycles     int64
	StaleReads int64
	WaitSync   [5]int64
}

// Captured from the closure-based engine at the commit introducing this
// test; regenerate only for an intended semantic change.
var pinnedStale = pinnedStaleRun{
	Cycles:     34,
	StaleReads: 5,
	WaitSync:   [5]int64{19, 13, 13, 33, 33},
}
