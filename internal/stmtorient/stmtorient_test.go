package stmtorient

import (
	"sync"
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
	prog1 := scs.AdvanceOps([]sim.Op{sim.Compute(5, sim.EffectFunc(func(int64) { a.Set(1, 7) }), 0, "S1@1")}, 0, 1)
	prog2 := []sim.Op{
		scs.AwaitOp(0, 1), // Await(1): source at distance 1
		sim.Compute(1, sim.EffectFunc(func(int64) { got = a.Get(1) }), 0, "S2@2"),
	}
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
	slow := scs.AdvanceOps([]sim.Op{sim.Compute(100, nil, 0, "slow")}, 0, 1)
	fast := scs.AdvanceOps([]sim.Op{sim.Compute(1, nil, 0, "fast")}, 0, 2)
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
	op := scs.AwaitOp(1, 0)
	if op.Kind != sim.OpCompute || op.Cycles != 0 {
		t.Errorf("AwaitOp(.,0) = %v, want free no-op", op)
	}
	if _, err := m.RunProcesses([][]sim.Op{{op}}); err != nil {
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

func TestSCSetRuntimeChain(t *testing.T) {
	// Runtime Advance/Await on a distance-2 recurrence with one source
	// statement, 4 workers.
	const n = 200
	s := NewSCSet(1)
	a := make([]int64, n+1)
	work := make(chan int64, n)
	for i := int64(1); i <= n; i++ {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s.Await(0, i-2) // await source instance i-2
				if i <= 2 {
					a[i] = i
				} else {
					a[i] = a[i-2] + 2
				}
				s.Advance(0, i)
			}
		}()
	}
	wg.Wait()
	for i := int64(1); i <= n; i++ {
		if a[i] != i {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], i)
		}
	}
	if s.Load(0) != n {
		t.Errorf("final SC = %d, want %d", s.Load(0), n)
	}
}

func TestSCSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSCSet(0) did not panic")
		}
	}()
	NewSCSet(0)
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
