package sim

import (
	"reflect"
	"strings"
	"testing"
)

func TestComputeSequenceTiming(t *testing.T) {
	m := New(Config{Processors: 1})
	stats, err := m.RunProcesses([][]Op{{
		Compute(5, 0, 0, m.Text("a")),
		Compute(7, 0, 0, m.Text("b")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 12 {
		t.Errorf("Cycles = %d, want 12", stats.Cycles)
	}
	if stats.Procs[0].Busy != 12 {
		t.Errorf("Busy = %d, want 12", stats.Procs[0].Busy)
	}
}

func TestExecRunsAtCompletionInOrder(t *testing.T) {
	m := New(Config{Processors: 2})
	var order []string
	mark := func(s string) EffID { return m.AddEffect(EffectFunc(func(int64) { order = append(order, s) })) }
	_, err := m.RunProcesses([][]Op{
		{Compute(5, mark("p0@5"), 0, Label{}), Compute(5, mark("p0@10"), 0, Label{})},
		{Compute(3, mark("p1@3"), 0, Label{}), Compute(4, mark("p1@7"), 0, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "p1@3 p0@5 p1@7 p0@10"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("exec order = %q, want %q", got, want)
	}
}

func TestSelfSchedulingDistributesIterations(t *testing.T) {
	m := New(Config{Processors: 4})
	prog := func(dst []Op, iter int64) []Op { return append(dst, Compute(10, 0, 0, Label{})) }
	stats, err := m.RunLoop(20, prog)
	if err != nil {
		t.Fatal(err)
	}
	// 20 iterations of 10 cycles over 4 processors: perfect 50 cycles.
	if stats.Cycles != 50 {
		t.Errorf("Cycles = %d, want 50", stats.Cycles)
	}
	if stats.Iterations != 20 {
		t.Errorf("Iterations = %d, want 20", stats.Iterations)
	}
	if u := stats.Utilization(); u != 1.0 {
		t.Errorf("Utilization = %v, want 1.0", u)
	}
}

func TestSchedOverheadAccounted(t *testing.T) {
	m := New(Config{Processors: 1, SchedOverhead: 3})
	stats, err := m.RunLoop(4, func(dst []Op, _ int64) []Op { return append(dst, Compute(10, 0, 0, Label{})) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 4*13 {
		t.Errorf("Cycles = %d, want 52", stats.Cycles)
	}
}

func TestRegisterVisibilityOwnWriteImmediate(t *testing.T) {
	// Writer's own wait sees the uncommitted value at once; another
	// processor only after the broadcast commits.
	m := New(Config{Processors: 2, BusLatency: 10, SyncOpCost: 0})
	v := m.NewRegVar("pc", 0)
	stats, err := m.RunProcesses([][]Op{
		{WriteVar(v, 1, Label{}), WaitGE(v, 1, m.Text("own")), Compute(1, 0, 0, Label{})},
		{WaitGE(v, 1, m.Text("other")), Compute(1, 0, 0, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0: write at 0, own wait satisfied immediately, compute 0..1.
	// Proc 1: blocked until commit at 10, compute 10..11.
	if stats.Cycles != 11 {
		t.Errorf("Cycles = %d, want 11", stats.Cycles)
	}
	if ws := stats.Procs[1].WaitSync; ws != 10 {
		t.Errorf("proc1 WaitSync = %d, want 10", ws)
	}
	if ws := stats.Procs[0].WaitSync; ws != 0 {
		t.Errorf("proc0 WaitSync = %d, want 0", ws)
	}
}

func TestBusFIFOSerializesBroadcasts(t *testing.T) {
	// Two writes from different processors at time 0: second commit at 2*L.
	m := New(Config{Processors: 3, BusLatency: 5, SyncOpCost: 0})
	v1 := m.NewRegVar("a", 0)
	v2 := m.NewRegVar("b", 0)
	stats, err := m.RunProcesses([][]Op{
		{WriteVar(v1, 1, Label{})},
		{WriteVar(v2, 1, Label{})},
		{WaitGE(v1, 1, Label{}), WaitGE(v2, 1, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 10 {
		t.Errorf("Cycles = %d, want 10 (two serialized broadcasts)", stats.Cycles)
	}
	if stats.BusBroadcasts != 2 {
		t.Errorf("BusBroadcasts = %d, want 2", stats.BusBroadcasts)
	}
}

func TestBusCoverageElidesSupersededWrite(t *testing.T) {
	// Proc 0 writes the same variable twice while another broadcast holds
	// the bus; with coverage the first write is covered by the second.
	run := func(coverage bool) Stats {
		m := New(Config{Processors: 2, BusLatency: 10, BusCoverage: coverage, SyncOpCost: 0})
		blockerVar := m.NewRegVar("blocker", 0)
		pc := m.NewRegVar("pc", 0)
		stats, err := m.RunProcesses([][]Op{
			{WriteVar(blockerVar, 1, Label{})}, // occupies the bus 0..10
			{Compute(1, 0, 0, Label{}), WriteVar(pc, 1, Label{}), Compute(1, 0, 0, Label{}), WriteVar(pc, 2, Label{}), WaitGE(pc, 2, Label{})},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	with := run(true)
	without := run(false)
	if with.BusSaved != 1 || with.BusBroadcasts != 2 {
		t.Errorf("coverage: saved=%d tx=%d, want 1 and 2", with.BusSaved, with.BusBroadcasts)
	}
	if without.BusSaved != 0 || without.BusBroadcasts != 3 {
		t.Errorf("no coverage: saved=%d tx=%d, want 0 and 3", without.BusSaved, without.BusBroadcasts)
	}
	if with.Cycles >= without.Cycles {
		t.Errorf("coverage did not shorten run: %d vs %d", with.Cycles, without.Cycles)
	}
}

func TestCoverageStillDeliversFinalValue(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 10, BusCoverage: true, SyncOpCost: 0})
	blocker := m.NewRegVar("blocker", 0)
	pc := m.NewRegVar("pc", 0)
	stats, err := m.RunProcesses([][]Op{
		// The blocker write holds the bus 0..10, so pc=1 is still queued
		// when pc=5 is issued and gets covered by it.
		{WriteVar(blocker, 1, Label{}), WriteVar(pc, 1, Label{}), WriteVar(pc, 5, Label{})},
		{WaitGE(pc, 5, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.VarValue(pc) != 5 {
		t.Errorf("pc = %d, want 5", m.VarValue(pc))
	}
	// The blocker broadcast plus one covering broadcast with value 5.
	if stats.BusBroadcasts != 2 || stats.BusSaved != 1 {
		t.Errorf("tx=%d saved=%d, want 2,1", stats.BusBroadcasts, stats.BusSaved)
	}
}

func TestZeroBusLatencyCommitsImmediately(t *testing.T) {
	m := New(Config{Processors: 2, SyncOpCost: 0})
	v := m.NewRegVar("v", 0)
	stats, err := m.RunProcesses([][]Op{
		{Compute(5, 0, 0, Label{}), WriteVar(v, 1, Label{})},
		{WaitGE(v, 1, Label{}), Compute(2, 0, 0, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 7 {
		t.Errorf("Cycles = %d, want 7", stats.Cycles)
	}
	if stats.BusBroadcasts != 1 {
		t.Errorf("BusBroadcasts = %d, want 1", stats.BusBroadcasts)
	}
}

func TestModuleContentionSerializes(t *testing.T) {
	// 4 processors RMW the same module at time 0 with latency 3:
	// completions at 3, 6, 9, 12.
	m := New(Config{Processors: 4, MemLatency: 3})
	v := m.NewMemVar("ctr", 0, 0)
	progs := make([][]Op, 4)
	for i := range progs {
		progs[i] = []Op{RMW(v, 1, Label{})}
	}
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 12 {
		t.Errorf("Cycles = %d, want 12", stats.Cycles)
	}
	if m.VarValue(v) != 4 {
		t.Errorf("ctr = %d, want 4", m.VarValue(v))
	}
	if stats.MaxModuleQueue != 4 {
		t.Errorf("MaxModuleQueue = %d, want 4", stats.MaxModuleQueue)
	}
	if stats.ModuleQueueWait != 0+3+6+9 {
		t.Errorf("ModuleQueueWait = %d, want 18", stats.ModuleQueueWait)
	}
}

func TestSeparateModulesDoNotContend(t *testing.T) {
	m := New(Config{Processors: 2, MemLatency: 3, Modules: 2})
	a := m.NewMemVar("a", 0, 0)
	b := m.NewMemVar("b", 1, 0)
	stats, err := m.RunProcesses([][]Op{
		{WriteVar(a, 1, Label{})},
		{WriteVar(b, 1, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 3 {
		t.Errorf("Cycles = %d, want 3 (parallel modules)", stats.Cycles)
	}
}

func TestPollingWaitGeneratesModuleTraffic(t *testing.T) {
	m := New(Config{Processors: 2, MemLatency: 2})
	flag := m.NewMemVar("flag", 0, 0)
	stats, err := m.RunProcesses([][]Op{
		{Compute(9, 0, 0, Label{}), WriteVar(flag, 1, Label{})},
		{WaitGE(flag, 1, m.Text("spin"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Polls == 0 {
		t.Error("expected busy-wait polls on memory variable")
	}
	// Each poll is a module access: polls + the single write.
	if stats.ModuleAccesses != stats.Polls+1 {
		t.Errorf("ModuleAccesses = %d, want polls+1 = %d", stats.ModuleAccesses, stats.Polls+1)
	}
	if stats.Procs[1].WaitSync == 0 {
		t.Error("poller accounted no WaitSync")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New(Config{Processors: 1})
	v := m.NewRegVar("never", 0)
	_, err := m.RunProcesses([][]Op{{WaitGE(v, 1, m.Text("stuck"))}})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
	if err != nil && !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock report should name the blocked op: %v", err)
	}
}

func TestLivelockCaughtByMaxCycles(t *testing.T) {
	// A polling wait that can never be satisfied spins forever; the cycle
	// cap turns that into an error instead of a hang.
	m := New(Config{Processors: 1, MaxCycles: 10_000})
	v := m.NewMemVar("never", 0, 0)
	_, err := m.RunProcesses([][]Op{{WaitGE(v, 1, Label{})}})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Errorf("err = %v, want MaxCycles", err)
	}
}

func TestProducerConsumerValueFlows(t *testing.T) {
	// Semantics check: consumer must read the produced value, not zero.
	m := New(Config{Processors: 2, BusLatency: 4, SyncOpCost: 1})
	arr := m.Mem().Array("A", 0, 0)
	v := m.NewRegVar("pc", 0)
	var got int64 = -1
	_, err := m.RunProcesses([][]Op{
		{Compute(10, m.AddEffect(EffectFunc(func(int64) { arr.Set(0, 42) })), 0, m.Text("produce")), WriteVar(v, 1, Label{})},
		{WaitGE(v, 1, Label{}), Compute(1, m.AddEffect(EffectFunc(func(int64) { got = arr.Get(0) })), 0, m.Text("consume"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("consumer read %d, want 42", got)
	}
}

func TestRunLoopDeterministic(t *testing.T) {
	run := func() Stats {
		m := New(Config{Processors: 3, BusLatency: 2, SyncOpCost: 1, SchedOverhead: 1})
		v := m.NewRegVar("pc", 0)
		prog := func(dst []Op, iter int64) []Op {
			return append(dst,
				WaitGE(v, iter-1, Label{}),
				Compute(3+iter%4, 0, 0, Label{}),
				WriteVar(v, iter, Label{}),
			)
		}
		stats, err := m.RunLoop(30, prog)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic runs:\n%v\n%v", a, b)
	}
}

func TestRunProcessesWrongCount(t *testing.T) {
	m := New(Config{Processors: 2})
	if _, err := m.RunProcesses([][]Op{{}}); err == nil {
		t.Error("mismatched program count accepted")
	}
}

func TestMachineSingleUse(t *testing.T) {
	m := New(Config{Processors: 1})
	if _, err := m.RunProcesses([][]Op{{}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second run did not panic")
		}
	}()
	m.RunProcesses([][]Op{{}})
}

func TestIdleAccounting(t *testing.T) {
	m := New(Config{Processors: 2})
	stats, err := m.RunProcesses([][]Op{
		{Compute(10, 0, 0, Label{})},
		{Compute(4, 0, 0, Label{})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Procs[1].Idle != 6 {
		t.Errorf("proc1 Idle = %d, want 6", stats.Procs[1].Idle)
	}
	if got := stats.Utilization(); got != 0.7 {
		t.Errorf("Utilization = %v, want 0.7", got)
	}
}

func TestRMWOnRegisterPanics(t *testing.T) {
	m := New(Config{Processors: 1})
	v := m.NewRegVar("r", 0)
	defer func() {
		if recover() == nil {
			t.Error("RMW on register did not panic")
		}
	}()
	m.RunProcesses([][]Op{{RMW(v, 0, Label{})}})
}

func TestWriteVarIf(t *testing.T) {
	m := New(Config{Processors: 1, SyncOpCost: 0})
	v := m.NewRegVar("pc", 3)
	ops := AppendWriteVarIfGE(nil, v, 10, 5, false, m.Text("skipped")) // 3 < 5: no write
	ops = AppendWriteVarIfGE(ops, v, 10, 3, false, m.Text("taken"))    // 3 >= 3: writes 10
	ops = AppendWriteVarIfGE(ops, v, 20, 10, false, m.Text("taken2"))  // own write visible: 10 >= 10
	stats, err := m.RunProcesses([][]Op{ops})
	if err != nil {
		t.Fatal(err)
	}
	if m.VarValue(v) != 20 {
		t.Errorf("v = %d, want 20", m.VarValue(v))
	}
	if stats.BusBroadcasts != 2 {
		t.Errorf("BusBroadcasts = %d, want 2 (one skipped)", stats.BusBroadcasts)
	}
}

func TestMemDiff(t *testing.T) {
	a, b := NewMem(), NewMem()
	a.Array("A", 0, 3).Set(2, 7)
	b.Array("A", 0, 3).Set(2, 8)
	a.Grid("G", 0, 1, 0, 1)
	b.Grid("G", 0, 1, 0, 1).Set(1, 1, 9)
	a.Array("S", 0, 0).Set(0, 1)
	b.Array("S", 0, 0)
	if d := a.Diff(b); !strings.Contains(d, "A[2]") || !strings.Contains(d, "G[1,1]") || !strings.Contains(d, "S[0]") {
		t.Errorf("Diff missing entries:\n%s", d)
	}
	c, d := NewMem(), NewMem()
	c.Array("A", 0, 3)
	d.Array("A", 0, 3)
	if diff := c.Diff(d); diff != "" {
		t.Errorf("identical mems differ: %s", diff)
	}
}

func TestArrayBounds(t *testing.T) {
	a := NewArray("A", -2, 5)
	a.Set(-2, 1)
	a.Set(5, 2)
	if a.Get(-2) != 1 || a.Get(5) != 2 || a.Len() != 8 {
		t.Error("array bounds arithmetic wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	a.Get(6)
}

func TestGridBounds(t *testing.T) {
	g := NewGrid("G", 1, 3, 2, 4)
	g.Set(3, 4, 9)
	if g.Get(3, 4) != 9 || g.Len() != 9 {
		t.Error("grid arithmetic wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range grid access did not panic")
		}
	}()
	g.Get(0, 2)
}

func TestChunkedDispatchCoversAllIterations(t *testing.T) {
	m := New(Config{Processors: 3, Dispatch: DispatchChunked, ChunkSize: 5, SchedOverhead: 2})
	seen := make(map[int64]int)
	see := m.AddEffect(EffectFunc(func(iter int64) { seen[iter]++ }))
	stats, err := m.RunLoop(23, func(dst []Op, iter int64) []Op {
		return append(dst, Compute(1, see, iter, Label{}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 23 {
		t.Errorf("Iterations = %d, want 23", stats.Iterations)
	}
	for i := int64(1); i <= 23; i++ {
		if seen[i] != 1 {
			t.Errorf("iteration %d executed %d times", i, seen[i])
		}
	}
}

func TestChunkedDispatchAmortizesOverhead(t *testing.T) {
	run := func(d Dispatch) Stats {
		m := New(Config{Processors: 1, Dispatch: d, ChunkSize: 8, SchedOverhead: 4})
		stats, err := m.RunLoop(64, func(dst []Op, iter int64) []Op {
			return append(dst, Compute(2, 0, 0, Label{}))
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	perIter := run(DispatchInOrder)
	chunked := run(DispatchChunked)
	// 64 dispatch overheads vs 8: 64*2+64*4 = 384 vs 64*2+8*4 = 160.
	if perIter.Cycles != 384 || chunked.Cycles != 160 {
		t.Errorf("cycles = %d (in-order), %d (chunked); want 384, 160",
			perIter.Cycles, chunked.Cycles)
	}
}

func TestReversedDispatchDeadlocksDependentLoop(t *testing.T) {
	// A flow dependence of distance 1 with reversed dispatch: both
	// processors hold late iterations whose sources never run.
	m := New(Config{Processors: 2, Dispatch: DispatchReversed})
	v := m.NewRegVar("chain", 0)
	waitPred, advance := m.Text("wait-pred"), m.Text("advance")
	_, err := m.RunLoop(10, func(ops []Op, iter int64) []Op {
		if iter > 1 {
			ops = append(ops, WaitGE(v, iter-1, waitPred))
		}
		ops = append(ops, Compute(1, 0, 0, Label{}), WriteVar(v, iter, advance))
		return ops
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("reversed dispatch of a dependent loop: err = %v, want deadlock", err)
	}
}

func TestReversedDispatchWorksForIndependentLoop(t *testing.T) {
	m := New(Config{Processors: 2, Dispatch: DispatchReversed})
	stats, err := m.RunLoop(10, func(dst []Op, iter int64) []Op {
		return append(dst, Compute(3, 0, 0, Label{}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 10 {
		t.Errorf("Iterations = %d, want 10", stats.Iterations)
	}
}
