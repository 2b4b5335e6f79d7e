package stmtorient

import (
	"testing"

	"github.com/csrd-repro/datasync/internal/sim"
)

func TestSimAdvanceAwaitFig32(t *testing.T) {
	// Two iterations of a single source statement (counter 0), Fig 3.2
	// protocol: process 2's sink awaits SC >= 2-1 before consuming.
	m := sim.New(sim.Config{Processors: 2, SyncOpCost: 0})
	scs := NewSimSCs(m, 1)
	a := m.Mem().Array("A", 0, 2)
	var got int64 = -1
	prog1 := scs.AdvanceOps([]sim.Op{sim.Compute(5, m.AddEffect(sim.EffectFunc(func(int64) { a.Set(1, 7) })), 0, m.Text("S1@1"))}, 0, 1)
	prog2 := append(scs.AwaitOps(nil, 0, 1), // Await(1): source at distance 1
		sim.Compute(1, m.AddEffect(sim.EffectFunc(func(int64) { got = a.Get(1) })), 0, m.Text("S2@2")))
	if _, err := m.RunProcesses([][]sim.Op{prog1, prog2}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("sink read %d, want 7", got)
	}
	if m.VarValue(scs.Var(0)) != 1 {
		t.Errorf("SC = %d, want 1", m.VarValue(scs.Var(0)))
	}
}

func TestSimAdvanceSerializesInstances(t *testing.T) {
	// The scheme's weakness: advances of the same statement are strictly
	// ordered. Process B, though independent, advances only after A.
	m := sim.New(sim.Config{Processors: 2, SyncOpCost: 0})
	scs := NewSimSCs(m, 1)
	slow := scs.AdvanceOps([]sim.Op{sim.Compute(100, 0, 0, m.Text("slow"))}, 0, 1)
	fast := scs.AdvanceOps([]sim.Op{sim.Compute(1, 0, 0, m.Text("fast"))}, 0, 2)
	stats, err := m.RunProcesses([][]sim.Op{slow, fast})
	if err != nil {
		t.Fatal(err)
	}
	// The fast process waits ~99 cycles for the slow one's advance.
	if stats.Procs[1].WaitSync < 90 {
		t.Errorf("fast process WaitSync = %d, want ~99 (serialized advance)", stats.Procs[1].WaitSync)
	}
}

func TestAwaitNoopForNonPositiveSeq(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1})
	scs := NewSimSCs(m, 2)
	ops := scs.AwaitOps(nil, 1, 0)
	if len(ops) != 1 || ops[0].Kind != sim.OpCompute || ops[0].Cycles != 0 {
		t.Errorf("AwaitOps(.,0) = %v, want one free no-op", ops)
	}
	if _, err := m.RunProcesses([][]sim.Op{ops}); err != nil {
		t.Fatal(err)
	}
}

func TestFoldingSharesPhysicalCounters(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1})
	scs := NewSimSCs(m, 3)
	if scs.Var(0) != scs.Var(3) || scs.Var(1) != scs.Var(4) {
		t.Error("logical counters 0/3 and 1/4 should share physical SCs")
	}
	if scs.Var(0) == scs.Var(1) {
		t.Error("logical counters 0 and 1 should not share")
	}
}

func TestSimSCsValidation(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1})
	defer func() {
		if recover() == nil {
			t.Error("NewSimSCs(m, 0) did not panic")
		}
	}()
	NewSimSCs(m, 0)
}
