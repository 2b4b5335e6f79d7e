package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
)

// TestRecoverHealsHaltedChain: the same halt that deadlocks the chain in
// TestFaultHaltDiagnosed completes when recovery is armed — the orphan
// iteration resumes where the dead processor stopped, the result is exact,
// and the report is cycle-accurate.
func TestRecoverHealsHaltedChain(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 1, SyncOpCost: 1,
		FaultPlan: fault.Plan{HaltProc: 0, HaltAtCycle: 5},
		Recover:   Recover{AfterCycles: 40}})
	v := m.NewRegVar("chain", 0)
	st, err := m.RunLoop(20, chainProg(m, v))
	if err != nil {
		t.Fatalf("recovery-armed run failed: %v", err)
	}
	if got := m.VarValue(v); got != 20 {
		t.Errorf("final chain value %d, want 20", got)
	}
	rep := st.Recovery
	if rep == nil || !rep.Recovered {
		t.Fatalf("no recovery report on a healed run: %+v", rep)
	}
	if rep.Proc != 0 {
		t.Errorf("reclaimed proc %d, want 0", rep.Proc)
	}
	if rep.CostCycles != 40 || rep.ReclaimedAt != rep.HaltedAt+40 {
		t.Errorf("quarantine window not AfterCycles: %+v", rep)
	}
	if rep.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", rep.Attempts)
	}
	if st.Faults.Halts != 1 {
		t.Errorf("halts = %d, want 1", st.Faults.Halts)
	}
	if err := st.CheckConservation(); err != nil {
		t.Errorf("conservation broken by recovery: %v", err)
	}
	if st.Iterations != 20 {
		t.Errorf("iterations = %d, want 20 (resume must not re-run work)", st.Iterations)
	}
}

// TestRecoverChunkedReassignsResidue: under chunked dispatch the victim dies
// holding a chunk; its unstarted residue must be folded onto live
// processors and every iteration still executes exactly once.
func TestRecoverChunkedReassignsResidue(t *testing.T) {
	m := New(Config{Processors: 4, BusLatency: 1, SyncOpCost: 1, SchedOverhead: 1,
		Dispatch: DispatchChunked, ChunkSize: 8,
		FaultPlan: fault.Plan{HaltProc: 1, HaltAtCycle: 6},
		Recover:   Recover{AfterCycles: 25}})
	v := m.NewRegVar("chain", 0)
	st, err := m.RunLoop(64, chainProg(m, v))
	if err != nil {
		t.Fatalf("chunked recovery failed: %v", err)
	}
	if got := m.VarValue(v); got != 64 {
		t.Errorf("final chain value %d, want 64", got)
	}
	rep := st.Recovery
	if rep == nil || !rep.Recovered {
		t.Fatal("no recovery report")
	}
	if rep.Reassigned == 0 {
		t.Errorf("victim held a chunk but nothing was reassigned: %+v", rep)
	}
	if st.Iterations != 64 {
		t.Errorf("iterations = %d, want 64", st.Iterations)
	}
	if err := st.CheckConservation(); err != nil {
		t.Errorf("conservation broken: %v", err)
	}
}

// TestRecoverDeterministic: recovery schedules are a pure function of
// (config, plan): repeated runs give deep-equal stats including the report.
func TestRecoverDeterministic(t *testing.T) {
	run := func() Stats {
		m := New(Config{Processors: 4, BusLatency: 1, SyncOpCost: 1, SchedOverhead: 1,
			Dispatch: DispatchChunked, ChunkSize: 4,
			FaultPlan: fault.Plan{Seed: 11, HaltProc: 2, HaltAtCycle: 9},
			Recover:   Recover{AfterCycles: 30}})
		v := m.NewRegVar("chain", 0)
		st, err := m.RunLoop(48, chainProg(m, v))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("recovered runs diverge:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRecoverDisarmedInvisible: an armed Recover with no halt in the plan
// changes nothing, and a zero Recover leaves the halt diagnosis exactly as
// before (StallError, not recovery).
func TestRecoverDisarmedInvisible(t *testing.T) {
	run := func(cfg Config) Stats {
		m := New(cfg)
		v := m.NewRegVar("chain", 0)
		st, err := m.RunLoop(40, chainProg(m, v))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := Config{Processors: 4, BusLatency: 1, SyncOpCost: 1}
	clean := run(cfg)
	cfg.Recover = Recover{AfterCycles: 10}
	armed := run(cfg)
	if !reflect.DeepEqual(clean, armed) {
		t.Errorf("recovery armed without a halt changed stats:\n%+v\nvs\n%+v", clean, armed)
	}

	// Zero Recover: the halt still deadlocks, with no recovery fields set.
	m := New(Config{Processors: 2, BusLatency: 1, SyncOpCost: 1,
		FaultPlan: fault.Plan{HaltProc: 0, HaltAtCycle: 5}})
	v := m.NewRegVar("chain", 0)
	_, err := m.RunLoop(20, chainProg(m, v))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.RecoveryArmed || se.Recovery != nil || se.RecoveryRefused != "" {
		t.Errorf("disarmed run reports recovery state: %+v", se)
	}
}

// TestRecoverRefusedOnUnreclaimableStall: recovery can only heal halts —
// ownership reclamation has nothing to reclaim from a dropped broadcast.
// The stall must still be diagnosed, now with an explicit refusal.
func TestRecoverRefusedOnUnreclaimableStall(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 1,
		FaultPlan: fault.Plan{Seed: 1, DropProb: 1},
		Recover:   Recover{AfterCycles: 10}})
	v := m.NewRegVar("chain", 0)
	_, err := m.RunLoop(4, chainProg(m, v))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !se.RecoveryArmed {
		t.Error("RecoveryArmed not set on an armed run")
	}
	if se.Recovery != nil {
		t.Errorf("nothing was reclaimable yet a report exists: %+v", se.Recovery)
	}
	if !strings.Contains(se.RecoveryRefused, "no reclaimable halted processor") {
		t.Errorf("refusal should say reclamation cannot heal a drop: %q", se.RecoveryRefused)
	}
	if !strings.Contains(err.Error(), "recovery refused") {
		t.Errorf("rendered error lost the refusal: %v", err)
	}
}

// TestRecoverRefusedWhenReclaimNeverFires: a reclamation scheduled past
// MaxCycles cannot heal the run; the livelock diagnosis must say so.
func TestRecoverRefusedWhenReclaimNeverFires(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 1, SyncOpCost: 1, MaxCycles: 500,
		FaultPlan: fault.Plan{HaltProc: 0, HaltAtCycle: 5},
		Recover:   Recover{AfterCycles: 5_000}})
	v := m.NewRegVar("chain", 0)
	_, err := m.RunLoop(20, chainProg(m, v))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !se.MaxCycles {
		t.Errorf("expected a cycle-cap stall: %v", err)
	}
	if !se.RecoveryArmed || !strings.Contains(se.RecoveryRefused, "before the reclamation") {
		t.Errorf("refusal should explain the unfired reclaim: %q", se.RecoveryRefused)
	}
}

// TestRecoverConfigCheck: recovery validation is an input error, and a
// single-processor recovery plan is refused up front — there is nobody to
// fold the orphaned work onto.
func TestRecoverConfigCheck(t *testing.T) {
	bad := []Config{
		{Processors: 2, Recover: Recover{AfterCycles: -1}},
		{Processors: 2, Recover: Recover{AfterCycles: 5, MaxReclaims: -2}},
		{Processors: 1, Recover: Recover{AfterCycles: 5}},
	}
	for i, cfg := range bad {
		if err := cfg.Check(); err == nil {
			t.Errorf("config %d passed Check", i)
		}
	}
	ok := Config{Processors: 2, Recover: Recover{AfterCycles: 5}}
	if err := ok.Check(); err != nil {
		t.Errorf("valid recovery config rejected: %v", err)
	}
}
