package exper

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/barrier"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// relaxRun executes one relaxation variant and checks the result.
func relaxRun(r workloads.Relax, p int, build func(m *sim.Machine) (sim.Program, int64), procsMode func(m *sim.Machine) [][]sim.Op) (sim.Stats, error) {
	m := sim.New(baseCfg(p))
	var stats sim.Stats
	var err error
	if build != nil {
		prog, iters := build(m)
		stats, err = m.RunLoop(iters, prog)
	} else {
		stats, err = m.RunProcesses(procsMode(m))
	}
	if err != nil {
		return stats, err
	}
	want, _ := r.SerialMem()
	if diff := want.Diff(m.Mem()); diff != "" {
		return stats, fmt.Errorf("relaxation diverged:\n%s", diff)
	}
	return stats, nil
}

// E6Relaxation reproduces Example 1 (Fig 5.1): the wavefront-with-barrier
// schedule against asynchronous pipelining, the SC-starvation effect, and
// the G (grouping) sweep.
func E6Relaxation() ([]*Table, error) {
	const p = 4
	r := workloads.Relax{N: 40, Cost: 10, G: 1}
	serial := (r.N - 1) * (r.N - 1) * r.Cost

	t := &Table{
		ID:    "E6.1",
		Title: fmt.Sprintf("Relaxation N=%d, cost=%d, P=%d: schedules compared", r.N, r.Cost, p),
		Columns: []string{"schedule", "cycles", "speedup", "util", "sync ops", "bus tx",
			"module acc", "max module queue"},
	}
	add := func(name string, stats sim.Stats) {
		t.AddRow(name, stats.Cycles, stats.Speedup(serial), stats.Utilization(),
			stats.SyncOps, stats.BusBroadcasts, stats.ModuleAccesses, stats.MaxModuleQueue)
	}

	stats, err := relaxRun(r, p, nil, func(m *sim.Machine) [][]sim.Op {
		b := barrier.NewSimCounter(m, 0)
		return r.Wavefront(m, func(pid int, round int64) []sim.Op { return b.Ops(round) })
	})
	if err != nil {
		return nil, err
	}
	add("wavefront + counter barrier", stats)

	stats, err = relaxRun(r, p, nil, func(m *sim.Machine) [][]sim.Op {
		b := barrier.NewSimPCBarrier(m)
		return r.Wavefront(m, b.Ops)
	})
	if err != nil {
		return nil, err
	}
	add("wavefront + PC butterfly barrier", stats)

	stats, err = relaxRun(r, p, func(m *sim.Machine) (sim.Program, int64) {
		return r.PipelinedPC(m, 2*p), r.N - 1
	}, nil)
	if err != nil {
		return nil, err
	}
	add(fmt.Sprintf("async pipeline, PCs (X=%d)", 2*p), stats)

	for _, k := range []int{2, int(r.SyncPoints())} {
		k := k
		stats, err = relaxRun(r, p, func(m *sim.Machine) (sim.Program, int64) {
			return r.PipelinedSC(m, k), r.N - 1
		}, nil)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("async pipeline, SCs (K=%d of %d points)", k, r.SyncPoints()), stats)
	}
	t.Note("the pipeline and the wavefront execute the same parallel steps; the pipeline")
	t.Note("avoids the barrier's wait-for-last and hot-spot costs (the paper's Fig 5.1d).")
	t.Note("with K << N-1 sync points the statement-oriented pipeline degenerates toward serial.")

	t2 := &Table{
		ID:      "E6.2",
		Title:   "Grouping sweep: G inner iterations per synchronization point (PC pipeline)",
		Columns: []string{"G", "sync points", "cycles", "speedup", "sync ops", "bus tx"},
	}
	for _, g := range []int64{1, 2, 4, 8, 13, 39} {
		rg := workloads.Relax{N: r.N, Cost: r.Cost, G: g}
		stats, err := relaxRun(rg, p, func(m *sim.Machine) (sim.Program, int64) {
			return rg.PipelinedPC(m, 2*p), rg.N - 1
		}, nil)
		if err != nil {
			return nil, err
		}
		t2.AddRow(g, rg.SyncPoints(), stats.Cycles, stats.Speedup(serial), stats.SyncOps, stats.BusBroadcasts)
	}
	t2.Note("synchronization drops ~G-fold; too-large G serializes the pipeline (G=N-1 is serial).")
	return []*Table{t, t2}, nil
}

// E7NestedLoop reproduces Example 2 (Fig 5.2): implicit coalescing with
// linearized pids versus the data-oriented boundary problem.
func E7NestedLoop() ([]*Table, error) {
	const nI, nJ, cost = 12, 10, 4
	t := &Table{
		ID:      "E7.1",
		Title:   fmt.Sprintf("Coalesced nested loop (N=%d, M=%d, P=4): schemes compared", nI, nJ),
		Columns: []string{"scheme", "sync vars", "storage", "cycles", "speedup", "util"},
	}
	schemes := []codegen.Scheme{
		codegen.ProcessOriented{X: 8, Improved: true},
		codegen.PipelinedOuter{X: 8, G: 1},
		codegen.PipelinedOuter{X: 8, G: 4},
		codegen.StatementOriented{},
		codegen.RefBased{},
		codegen.NewInstanceBased(),
	}
	for _, sch := range schemes {
		res, err := codegen.Run(workloads.Nested(nI, nJ, cost), sch, baseCfg(4))
		if err != nil {
			return nil, err
		}
		t.AddRow(res.Scheme, res.Foot.SyncVars, res.Foot.StorageWords,
			res.Stats.Cycles, res.Speedup(), res.Stats.Utilization())
	}
	t.Note("pipeline(X,G) keeps the outer loop as the Doacross (one process per row, the")
	t.Note("paper's Example 1 structure applied to Example 2) instead of full coalescing.")
	w := workloads.Nested(nI, nJ, cost)
	enf := w.Nest.LinearGraph().Enforced()
	for _, a := range enf {
		t.Note("linearized enforced arc: %s -> %s at lpid distance %d",
			w.Nest.Stmts()[a.Src].Name, w.Nest.Stmts()[a.Dst].Name, a.Dist[0])
	}

	// The boundary problem: per-element access counts are not uniform, so
	// data-oriented keys need boundary-aware initialization/tests, while
	// coalesced process counters see a uniform protocol.
	plan := dataorient.BuildPlan(w.Nest)
	counts := map[string]map[int64]int64{}
	for _, e := range plan.Order {
		m := counts[e.Array]
		if m == nil {
			m = map[int64]int64{}
			counts[e.Array] = m
		}
		m[plan.FinalKey(e)]++
	}
	t2 := &Table{
		ID:      "E7.2",
		Title:   "Boundary problem: distribution of per-element access counts (data-oriented)",
		Columns: []string{"array", "accesses per element", "elements"},
	}
	for _, arr := range []string{"A", "B", "OUT"} {
		for c := int64(1); c <= 4; c++ {
			if n := counts[arr][c]; n > 0 {
				t2.AddRow(arr, c, n)
			}
		}
	}
	t2.Note("interior and boundary elements are keyed differently; linearization cannot make")
	t2.Note("the counts uniform (the paper's argument in Example 2).")
	return []*Table{t, t2}, nil
}

// E8Branches reproduces Example 3 (Fig 5.3): sources inside branches, with
// the untaken arm's steps published on every path.
func E8Branches() ([]*Table, error) {
	const n, cost = 60, 4
	t := &Table{
		ID:      "E8.1",
		Title:   fmt.Sprintf("Branchy loop (N=%d, P=4): schemes compared", n),
		Columns: []string{"scheme", "sync vars", "cycles", "speedup"},
	}
	schemes := []codegen.Scheme{
		codegen.ProcessOriented{X: 8, Improved: true},
		codegen.ProcessOriented{X: 8, Improved: false},
		codegen.StatementOriented{},
		codegen.RefBased{},
		codegen.NewInstanceBased(),
	}
	for _, sch := range schemes {
		res, err := codegen.Run(workloads.Branchy(n, cost), sch, baseCfg(4))
		if err != nil {
			return nil, err
		}
		t.AddRow(res.Scheme, res.Foot.SyncVars, res.Stats.Cycles, res.Speedup())
	}

	t2 := &Table{
		ID:      "E8.2",
		Title:   "Generated ops for an odd and an even iteration (process-oriented, improved)",
		Columns: []string{"iteration 11 (takes THEN)", "iteration 12 (takes ELSE)"},
	}
	w := workloads.Branchy(n, cost)
	m := sim.New(baseCfg(4))
	w.Setup(m.Mem())
	prog, _, err := codegen.ProcessOriented{X: 4, Improved: true}.Instrument(m, w)
	if err != nil {
		return nil, err
	}
	odd, even := prog(11), prog(12)
	for i := 0; i < len(odd) || i < len(even); i++ {
		var a, b string
		if i < len(odd) {
			a = odd[i].Tag.String()
		}
		if i < len(even) {
			b = even[i].Tag.String()
		}
		t2.AddRow(a, b)
	}
	t2.Note("the arm that runs also publishes the skipped arm's step (the covering mark),")
	t2.Note("and the ELSE path publishes the THEN step early — Fig 5.3's rule.")
	return []*Table{t, t2}, nil
}

// E9Barriers reproduces Example 4 (Fig 5.4): the counter barrier's hot spot
// against the butterfly barriers, and the synchronization-variable counts.
func E9Barriers() ([]*Table, error) {
	const rounds = 6
	t := &Table{
		ID:    "E9.1",
		Title: fmt.Sprintf("Barrier algorithms, %d rounds of skewed phases", rounds),
		Columns: []string{"P", "algorithm", "sync vars", "cycles", "module acc",
			"max module queue", "wait cycles"},
	}
	for _, p := range []int{2, 4, 8, 16} {
		type variant struct {
			name string
			vars int
			ops  func(m *sim.Machine) func(pid int, round int64) []sim.Op
		}
		variants := []variant{
			{"counter (one shared cell)", 1, func(m *sim.Machine) func(int, int64) []sim.Op {
				b := barrier.NewSimCounter(m, 0)
				return func(pid int, round int64) []sim.Op { return b.Ops(round) }
			}},
			{"Brooks butterfly (flag matrix)", p * barrier.Log2(p), func(m *sim.Machine) func(int, int64) []sim.Op {
				return barrier.NewSimFlags(m, sim.Memory).Ops
			}},
			{"PC butterfly (Fig 5.4)", p, func(m *sim.Machine) func(int, int64) []sim.Op {
				return barrier.NewSimPCBarrier(m).Ops
			}},
		}
		for _, v := range variants {
			m := sim.New(baseCfg(p))
			ops := v.ops(m)
			progs := make([][]sim.Op, p)
			for pid := 0; pid < p; pid++ {
				var prog []sim.Op
				for r := int64(1); r <= rounds; r++ {
					prog = append(prog, sim.Compute(int64(5+(pid*3+int(r)*7)%11), nil, "phase"))
					prog = append(prog, ops(pid, r)...)
				}
				progs[pid] = prog
			}
			stats, err := m.RunProcesses(progs)
			if err != nil {
				return nil, fmt.Errorf("P=%d %s: %w", p, v.name, err)
			}
			t.AddRow(p, v.name, v.vars, stats.Cycles, stats.ModuleAccesses,
				stats.MaxModuleQueue, stats.WaitSyncTotal())
		}
	}
	t.Note("the counter barrier funnels arrivals and departure polls through one module")
	t.Note("(hot spot, growing with P); the PC butterfly needs neither atomics nor module")
	t.Note("traffic and uses P variables against the flag matrix's P*log2(P).")

	// Non-power-of-two P: the paper notes the butterfly extends via [11]
	// (the dissemination barrier); the PC variable economy carries over.
	t2 := &Table{
		ID:      "E9.2",
		Title:   fmt.Sprintf("Non-power-of-two P (dissemination pattern, %d rounds)", rounds),
		Columns: []string{"P", "algorithm", "sync vars", "cycles", "module acc", "wait cycles"},
	}
	for _, p := range []int{3, 5, 6, 12} {
		type variant struct {
			name string
			vars int
			ops  func(m *sim.Machine) func(pid int, round int64) []sim.Op
		}
		variants := []variant{
			{"counter (one shared cell)", 1, func(m *sim.Machine) func(int, int64) []sim.Op {
				b := barrier.NewSimCounter(m, 0)
				return func(pid int, round int64) []sim.Op { return b.Ops(round) }
			}},
			{"dissemination (flag matrix)", p * barrier.Stages(p), func(m *sim.Machine) func(int, int64) []sim.Op {
				return barrier.NewSimDissemination(m, sim.Memory).Ops
			}},
			{"PC dissemination", p, func(m *sim.Machine) func(int, int64) []sim.Op {
				return barrier.NewSimPCDissemination(m).Ops
			}},
		}
		for _, v := range variants {
			m := sim.New(baseCfg(p))
			ops := v.ops(m)
			progs := make([][]sim.Op, p)
			for pid := 0; pid < p; pid++ {
				var prog []sim.Op
				for r := int64(1); r <= rounds; r++ {
					prog = append(prog, sim.Compute(int64(5+(pid*3+int(r)*7)%11), nil, "phase"))
					prog = append(prog, ops(pid, r)...)
				}
				progs[pid] = prog
			}
			stats, err := m.RunProcesses(progs)
			if err != nil {
				return nil, fmt.Errorf("P=%d %s: %w", p, v.name, err)
			}
			t2.AddRow(p, v.name, v.vars, stats.Cycles, stats.ModuleAccesses, stats.WaitSyncTotal())
		}
	}
	t2.Note("\"with a minor modification, b_barrier() can work even when P is not a power")
	t2.Note("of 2 [11]\" — the dissemination barrier; one PC per participant still suffices.")
	return []*Table{t, t2}, nil
}

// E10FFT reproduces Example 5: phases with local communication need no
// global barrier.
func E10FFT() ([]*Table, error) {
	t := &Table{
		ID:      "E10.1",
		Title:   "FFT-structured phases: pairwise PC sync vs a global barrier per stage",
		Columns: []string{"P", "variant", "cycles", "wait cycles", "module acc"},
	}
	for _, p := range []int{4, 8, 16} {
		f := workloads.FFT{P: p, Chunk: 8, Cost: 5}
		want, _ := f.SerialMem()

		mPair := sim.New(baseCfg(p))
		pairStats, err := mPair.RunProcesses(f.Pairwise(mPair))
		if err != nil {
			return nil, err
		}
		if diff := want.Diff(mPair.Mem()); diff != "" {
			return nil, fmt.Errorf("pairwise FFT P=%d diverged:\n%s", p, diff)
		}
		t.AddRow(p, "pairwise PC sync (paper)", pairStats.Cycles, pairStats.WaitSyncTotal(), pairStats.ModuleAccesses)

		mBar := sim.New(baseCfg(p))
		b := barrier.NewSimCounter(mBar, 0)
		barStats, err := mBar.RunProcesses(f.WithBarrier(mBar, func(pid int, round int64) []sim.Op { return b.Ops(round) }))
		if err != nil {
			return nil, err
		}
		if diff := want.Diff(mBar.Mem()); diff != "" {
			return nil, fmt.Errorf("barrier FFT P=%d diverged:\n%s", p, diff)
		}
		t.AddRow(p, "counter barrier per stage", barStats.Cycles, barStats.WaitSyncTotal(), barStats.ModuleAccesses)
	}
	t.Note("each stage's consumer waits only for its one partner; the barrier makes everyone")
	t.Note("wait for the slowest processor and pay the hot spot.")

	// The paper's second local-communication application: PDE discretization
	// sweeps where a process synchronizes only with its neighbors.
	t2 := &Table{
		ID:      "E10.2",
		Title:   "Jacobi PDE sweeps: neighbor-only PC sync vs a barrier per sweep",
		Columns: []string{"P", "variant", "cycles", "wait cycles", "module acc"},
	}
	for _, p := range []int{4, 8, 16} {
		j := workloads.Jacobi{P: p, Strip: 8, Sweeps: 8, Cost: 4}
		want, _ := j.SerialMem()

		mN := sim.New(baseCfg(p))
		nStats, err := mN.RunProcesses(j.NeighborSync(mN))
		if err != nil {
			return nil, err
		}
		if diff := want.Diff(mN.Mem()); diff != "" {
			return nil, fmt.Errorf("neighbor Jacobi P=%d diverged:\n%s", p, diff)
		}
		t2.AddRow(p, "neighbor PC sync (paper)", nStats.Cycles, nStats.WaitSyncTotal(), nStats.ModuleAccesses)

		mB := sim.New(baseCfg(p))
		b := barrier.NewSimCounter(mB, 0)
		bStats, err := mB.RunProcesses(j.WithBarrier(mB, func(pid int, round int64) []sim.Op { return b.Ops(round) }))
		if err != nil {
			return nil, err
		}
		if diff := want.Diff(mB.Mem()); diff != "" {
			return nil, fmt.Errorf("barrier Jacobi P=%d diverged:\n%s", p, diff)
		}
		t2.AddRow(p, "counter barrier per sweep", bStats.Cycles, bStats.WaitSyncTotal(), bStats.ModuleAccesses)
	}
	t2.Note("\"a process only needs to synchronize with processes computing its neighboring")
	t2.Note("regions\" — P process counters replace the global barrier entirely.")
	return []*Table{t, t2}, nil
}
