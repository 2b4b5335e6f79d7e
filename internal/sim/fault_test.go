package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
)

// chainProg is a dependent loop: iteration i waits for its predecessor's
// signal, computes, then signals. The canonical victim for bus faults.
func chainProg(m *Machine, v VarID) Program {
	waitPred, work, signal := m.Text("wait-pred"), m.Text("work"), m.Text("signal")
	return func(ops []Op, iter int64) []Op {
		if iter > 1 {
			ops = append(ops, WaitGE(v, iter-1, waitPred))
		}
		ops = append(ops, Compute(3, 0, 0, work), WriteVar(v, iter, signal))
		return ops
	}
}

// TestFaultZeroPlanZeroEffect: a config whose plan only sets a seed (still
// disabled) produces DeepEqual stats to a plainly-configured run.
func TestFaultZeroPlanZeroEffect(t *testing.T) {
	run := func(cfg Config) Stats {
		m := New(cfg)
		v := m.NewRegVar("chain", 0)
		st, err := m.RunLoop(40, chainProg(m, v))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := Config{Processors: 4, BusLatency: 1, SyncOpCost: 1, SchedOverhead: 1}
	clean := run(cfg)
	cfg.FaultPlan = fault.Plan{Seed: 42} // seed alone arms nothing
	seeded := run(cfg)
	if !reflect.DeepEqual(clean, seeded) {
		t.Errorf("unarmed plan changed stats:\n%+v\nvs\n%+v", clean, seeded)
	}
}

// TestFaultDropCausesDiagnosedDeadlock: dropping every broadcast starves
// the successor, and the stall is attributed to the drop.
func TestFaultDropCausesDiagnosedDeadlock(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 1,
		FaultPlan: fault.Plan{Seed: 1, DropProb: 1}})
	v := m.NewRegVar("chain", 0)
	st, err := m.RunLoop(4, chainProg(m, v))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("stall message lost the deadlock diagnosis: %v", err)
	}
	if !se.Explained {
		t.Errorf("drop-induced stall not explained: %v", err)
	}
	if !strings.Contains(se.Explanation, "dropped") {
		t.Errorf("explanation should name the drop: %q", se.Explanation)
	}
	if len(se.Blocked) == 0 || se.Blocked[0].Var != "chain" {
		t.Errorf("blocked report should name the awaited variable: %+v", se.Blocked)
	}
	if se.Faults.Drops == 0 || st.Faults.Drops != se.Faults.Drops {
		t.Errorf("drop counts inconsistent: stats %+v vs stall %+v", st.Faults, se.Faults)
	}
}

// TestFaultDelayKeepsResultAndDeterminism: delays slow the run but cannot
// change its outcome, and the same seed gives identical stats.
func TestFaultDelayKeepsResultAndDeterminism(t *testing.T) {
	run := func(plan fault.Plan) (Stats, int64) {
		m := New(Config{Processors: 4, BusLatency: 1, SyncOpCost: 1, FaultPlan: plan})
		v := m.NewRegVar("chain", 0)
		st, err := m.RunLoop(60, chainProg(m, v))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckConservation(); err != nil {
			t.Errorf("conservation broken under delays: %v", err)
		}
		return st, m.VarValue(v)
	}
	clean, _ := run(fault.Plan{})
	plan := fault.Plan{Seed: 7, DelayProb: 0.4, DelayCycles: 6}
	a, va := run(plan)
	b, vb := run(plan)
	if !reflect.DeepEqual(a, b) || va != vb {
		t.Errorf("same seed, different runs:\n%+v\nvs\n%+v", a, b)
	}
	if a.Faults.Delays == 0 {
		t.Error("0.4 delay probability injected nothing over 60 iterations")
	}
	if va != 60 {
		t.Errorf("final chain value %d, want 60", va)
	}
	if a.Cycles <= clean.Cycles {
		t.Errorf("delays did not lengthen the run: %d vs clean %d", a.Cycles, clean.Cycles)
	}
}

// TestFaultDupHarmless: duplicated broadcasts of a monotone variable cannot
// change the outcome.
func TestFaultDupHarmless(t *testing.T) {
	m := New(Config{Processors: 4, BusLatency: 1,
		FaultPlan: fault.Plan{Seed: 5, DupProb: 0.5}})
	v := m.NewRegVar("chain", 0)
	st, err := m.RunLoop(50, chainProg(m, v))
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults.Dups == 0 {
		t.Error("no duplicates injected at 0.5 probability")
	}
	if got := m.VarValue(v); got != 50 {
		t.Errorf("final chain value %d, want 50", got)
	}
}

// TestFaultStaleReadAccounted: stale register images delay waits without
// breaking the outcome or the cycle accounting.
func TestFaultStaleReadAccounted(t *testing.T) {
	run := func(plan fault.Plan) Stats {
		m := New(Config{Processors: 4, BusLatency: 1, SyncOpCost: 1, FaultPlan: plan})
		v := m.NewRegVar("chain", 0)
		st, err := m.RunLoop(60, chainProg(m, v))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CheckConservation(); err != nil {
			t.Errorf("conservation broken under stale reads: %v", err)
		}
		return st
	}
	clean := run(fault.Plan{})
	st := run(fault.Plan{Seed: 3, StaleProb: 0.5, StaleCycles: 5})
	if st.Faults.StaleReads == 0 {
		t.Fatal("no stale reads injected at 0.5 probability")
	}
	if st.WaitSyncTotal() <= clean.WaitSyncTotal() {
		t.Errorf("stale reads did not add wait time: %d vs %d",
			st.WaitSyncTotal(), clean.WaitSyncTotal())
	}
}

// TestFaultTornOrders is the §6 experiment in miniature, on raw packed
// <owner,step> words (20-bit step field, as in core). The variable holds
// <1,3>; the writer releases to <2,0>; the waiter needs <2,2> — a step
// owner 2 has not yet marked.
//
// Step-first tear: the intermediate is <1,0> (stale owner), which releases
// nobody; the waiter correctly stays blocked forever (deadlock here, since
// nobody ever marks step 2). Owner-first tear: the intermediate is <2,3> —
// new owner, stale step — which wrongly satisfies the <2,2> wait: a
// premature release, the hazard §6's store-order rule exists to prevent.
func TestFaultTornOrders(t *testing.T) {
	const step = int64(1) << 20
	pack := func(owner, s int64) int64 { return owner*step + s }
	run := func(order string) error {
		m := New(Config{Processors: 2, BusLatency: 1, MaxCycles: 10_000,
			FaultPlan: fault.Plan{TornProb: 1, TornOrder: order, TornWindow: 4}})
		v := m.NewRegVar("PC[0]", pack(1, 3))
		_, err := m.RunProcesses([][]Op{
			{WriteVar(v, pack(2, 0), m.Text("release"))},
			{WaitGE(v, pack(2, 2), m.Text("wait-2-2"))},
		})
		return err
	}
	if err := run(fault.StepFirst); err == nil {
		t.Error("step-first tear released a wait on an unmarked step")
	} else {
		var se *StallError
		if !errors.As(err, &se) {
			t.Errorf("step-first deadlock not a StallError: %v", err)
		}
	}
	if err := run(fault.OwnerFirst); err != nil {
		t.Errorf("owner-first tear should (wrongly) release the waiter, got: %v", err)
	}
}

// TestFaultHaltDiagnosed: a halted processor stalls the chain and the
// diagnosis names it.
func TestFaultHaltDiagnosed(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 1, SyncOpCost: 1,
		FaultPlan: fault.Plan{HaltProc: 0, HaltAtCycle: 5}})
	v := m.NewRegVar("chain", 0)
	_, err := m.RunLoop(20, chainProg(m, v))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !se.Explained || !strings.Contains(se.Explanation, "halted") {
		t.Errorf("halt not diagnosed: %v", err)
	}
	if se.Faults.Halts != 1 {
		t.Errorf("halts = %d, want 1", se.Faults.Halts)
	}
}

// TestFaultSlowProcessor: a slow processor lengthens the run but not its
// result; module delays behave likewise on memory-resident variables.
func TestFaultSlowProcessorAndModuleDelay(t *testing.T) {
	run := func(plan fault.Plan) Stats {
		m := New(Config{Processors: 4, BusLatency: 1, FaultPlan: plan})
		v := m.NewRegVar("chain", 0)
		st, err := m.RunLoop(40, chainProg(m, v))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	clean := run(fault.Plan{})
	slow := run(fault.Plan{SlowProc: 1, SlowFactor: 4})
	if slow.Faults.SlowOps == 0 || slow.Cycles <= clean.Cycles {
		t.Errorf("slow processor had no effect: %d vs %d (faults %+v)",
			slow.Cycles, clean.Cycles, slow.Faults)
	}

	// Module-delay path: a memory-resident flag polled through its module.
	m := New(Config{Processors: 2, MemLatency: 2,
		FaultPlan: fault.Plan{Seed: 9, ModuleDelayProb: 1, ModuleDelayCycles: 7}})
	f := m.NewMemVar("flag", 0, 0)
	st, err := m.RunProcesses([][]Op{
		{Compute(10, 0, 0, m.Text("work")), WriteVar(f, 1, m.Text("set"))},
		{WaitGE(f, 1, m.Text("poll"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults.ModuleDelays == 0 {
		t.Error("no module delays injected at probability 1")
	}
}

// TestFaultLivelockExplainedBySlowdown: when only slowdown faults are armed
// and the cycle cap fires, the diagnosis says so.
func TestFaultLivelockExplainedBySlowdown(t *testing.T) {
	m := New(Config{Processors: 1, MaxCycles: 5_000, MemLatency: 2,
		FaultPlan: fault.Plan{Seed: 2, ModuleDelayProb: 0.5, ModuleDelayCycles: 4}})
	v := m.NewMemVar("never", 0, 0)
	_, err := m.RunProcesses([][]Op{{WaitGE(v, 1, m.Text("stuck-poll"))}})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !se.MaxCycles || !strings.Contains(err.Error(), "MaxCycles") {
		t.Errorf("cycle-cap stall not marked: %v", err)
	}
	if !se.Explained {
		t.Errorf("slowdown-only livelock should be explained: %v", err)
	}
}

// TestFaultConfigCheck: bad plans and out-of-range processor targets are
// input errors from Config.Check, not crashes.
func TestFaultConfigCheck(t *testing.T) {
	bad := []Config{
		{Processors: 2, FaultPlan: fault.Plan{DropProb: 2}},
		{Processors: 2, FaultPlan: fault.Plan{SlowProc: 5, SlowFactor: 2}},
		{Processors: 2, FaultPlan: fault.Plan{HaltProc: 2, HaltAtCycle: 1}},
	}
	for i, cfg := range bad {
		if err := cfg.Check(); err == nil {
			t.Errorf("config %d passed Check", i)
		}
	}
	ok := Config{Processors: 2, FaultPlan: fault.Plan{SlowProc: 1, SlowFactor: 2}}
	if err := ok.Check(); err != nil {
		t.Errorf("valid faulty config rejected: %v", err)
	}
}
