package exper

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

func arcRow(t *Table, g *deps.Graph, a deps.Arc, status string) {
	dist := "?"
	if a.Known {
		dist = fmt.Sprintf("%d", a.Dist[0])
	}
	t.AddRow(g.Stmts[a.Src].Name, g.Stmts[a.Dst].Name, a.Kind.String(), dist,
		a.SrcRef.String(), a.DstRef.String(), status)
}

// E1DependenceGraph regenerates Fig 2.1(b): the dependence graph of the
// five-statement loop and the covering elimination of S1->S4 (and the
// memory-based S1->S5 the figure omits).
func E1DependenceGraph() ([]*Table, error) {
	w := workloads.Fig21(20, 1)
	g := w.Nest.LinearGraph()
	enforced := g.Enforced()
	isEnforced := func(a deps.Arc) bool {
		for _, e := range enforced {
			if e.Src == a.Src && e.Dst == a.Dst && e.Dist[0] == a.Dist[0] {
				return true
			}
		}
		return false
	}
	t := &Table{
		ID:      "E1.1",
		Title:   "Dependence graph of the Fig 2.1 loop (cross-iteration arcs)",
		Columns: []string{"source", "sink", "kind", "dist", "source ref", "sink ref", "enforcement"},
	}
	for _, a := range g.CrossArcs() {
		status := "enforced"
		if !isEnforced(a) {
			status = "covered (eliminated)"
		}
		arcRow(t, g, a, status)
	}
	t.Note("S1->S4 (output, 3) is covered by S1->S3 (1) + S3->S4 (2), as the paper observes;")
	t.Note("S1->S5 (flow, 4) is the memory-based arc Fig 2.1 omits, covered by S1->S3+S3->S4+S4->S5.")

	t2 := &Table{
		ID:      "E1.2",
		Title:   "Enforced set and the wait_PC each arc induces (Fig 4.1 view)",
		Columns: []string{"arc", "sink executes", "source step", "wait"},
	}
	for _, a := range enforced {
		step := sourceStep(enforced, a.Src)
		t2.AddRow(
			fmt.Sprintf("%s -%s(%d)-> %s", g.Stmts[a.Src].Name, a.Kind, a.Dist[0], g.Stmts[a.Dst].Name),
			g.Stmts[a.Dst].Name, step,
			fmt.Sprintf("wait_PC(%d,%d)", a.Dist[0], step))
	}
	t2.Note("the Fig 2.1 loop has no loop-independent dependences; body order alone")
	t2.Note("orders statements within one iteration (the figure's dashed lines).")
	return []*Table{t, t2}, nil
}

// sourceStep numbers source statements by body position, as the
// process-oriented code generator does.
func sourceStep(enforced []deps.Arc, src int) int64 {
	srcs := map[int]bool{}
	for _, a := range enforced {
		srcs[a.Src] = true
	}
	step := int64(0)
	for p := 0; p <= src; p++ {
		if srcs[p] {
			step++
		}
	}
	return step
}

// E2DataOriented regenerates Fig 3.1: the reference-based ticket assignment
// for one interior element, the instance-based renaming plan, and the
// storage accounting that motivates the paper's criticism.
func E2DataOriented() ([]*Table, error) {
	const n = 100
	w := workloads.Fig21(n, 1)
	plan := dataorient.BuildPlan(w.Nest)
	ei, ok := plan.Lookup(dataorient.Elem{Array: "A", Dims: 1, C: [3]int64{10}})
	if !ok {
		return nil, fmt.Errorf("E2: the Fig 2.1 plan touches no A[10]")
	}
	stmts := w.Nest.Stmts()

	t := &Table{
		ID:      "E2.1",
		Title:   "Fig 3.1a — reference-based key protocol for element A[10]",
		Columns: []string{"access", "iteration", "kind", "wait until key>=", "then"},
	}
	for _, a := range plan.Seq(ei) {
		t.AddRow(stmts[a.ID.StmtPos].Name, a.ID.Lpid, a.Kind.String(), a.Ticket, "++key")
	}
	t.Note("reads between two writes share a ticket and proceed in any order (S2,S3).")

	t2 := &Table{
		ID:      "E2.2",
		Title:   "Fig 3.1b — instance-based renaming for element A[10]",
		Columns: []string{"access", "iteration", "kind", "version", "copies/copy#"},
	}
	for _, a := range plan.Seq(ei) {
		detail := fmt.Sprintf("consumes copy %d", a.CopyIdx)
		ver := a.Epoch
		if a.Kind == deps.Write {
			detail = fmt.Sprintf("writes %d copies", maxI(a.Readers, 1))
			ver = a.Epoch + 1
		}
		t2.AddRow(stmts[a.ID.StmtPos].Name, a.ID.Lpid, a.Kind.String(), ver, detail)
	}

	f := plan.Footprint()
	t3 := &Table{
		ID:      "E2.3",
		Title:   fmt.Sprintf("Synchronization storage for the Fig 2.1 loop, N=%d", n),
		Columns: []string{"scheme", "sync variables", "init ops", "storage words"},
	}
	t3.AddRow("data (reference-based keys)", f.Keys, f.InitOps, f.Keys)
	t3.AddRow("data (instance-based, HEP)", f.Bits, f.Bits, f.Bits+f.Copies)
	t3.AddRow("statement-oriented (SCs)", 4, 4, 4)
	t3.AddRow("process-oriented (X=8 PCs)", 8, 8, 8)
	t3.Note("data-oriented storage grows with the data (O(N)); SCs with the body; PCs with X only.")
	return []*Table{t, t2, t3}, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E3StatementSerialization measures the paper's horizontal-sharing
// argument: one delayed iteration stalls every later advance of a statement
// counter, while process counters only delay true dependents. The workload
// is a distance-8 recurrence — eight independent dependence chains — so a
// delay in one chain leaves the other seven chains free under process
// counters, while the statement counter's strict iteration-order advance
// stalls them all.
func E3StatementSerialization() ([]*Table, error) {
	const n, dist, cost, delayed, delay = 320, 8, 4, 60, 400
	run := func(sch codegen.Scheme, withDelay bool) (codegen.Result, error) {
		w := workloads.Recurrence(n, dist, cost)
		if withDelay {
			s1 := w.Nest.Stmts()[0]
			w.CostOf = func(s *deps.Stmt, idx []int64) int64 {
				if s == s1 && idx[0] == delayed {
					return delay
				}
				return s.Cost
			}
		}
		return codegen.Run(w, sch, baseCfg(4))
	}
	t := &Table{
		ID: "E3.1",
		Title: fmt.Sprintf("Distance-%d recurrence, iteration %d delayed %dx (N=%d, P=4)",
			dist, delayed, delay/cost, n),
		Columns: []string{"scheme", "cycles (uniform)", "cycles (delayed)", "penalty",
			"wait cycles (delayed)"},
	}
	schemes := []codegen.Scheme{
		codegen.ProcessOriented{X: 16, Improved: true},
		codegen.StatementOriented{},
	}
	var penalties []int64
	for _, sch := range schemes {
		smooth, err := run(sch, false)
		if err != nil {
			return nil, err
		}
		slow, err := run(sch, true)
		if err != nil {
			return nil, err
		}
		penalty := slow.Stats.Cycles - smooth.Stats.Cycles
		penalties = append(penalties, penalty)
		t.AddRow(sch.Name(), smooth.Stats.Cycles, slow.Stats.Cycles, penalty,
			slow.Stats.WaitSyncTotal())
	}
	t.Note("process counters are shared vertically (within a process): the delayed iteration")
	t.Note("stalls only its true dependents; statement counters serialize instances, so the")
	t.Note("stall propagates to every later iteration's advance.")
	if len(penalties) == 2 && penalties[1] <= penalties[0] {
		t.Note("WARNING: expected statement-oriented penalty to exceed process-oriented.")
	}
	return []*Table{t}, nil
}

// E4SchemeComparison is the cross-scheme comparison on the canonical loop,
// plus the generated program of Fig 4.2b.
func E4SchemeComparison() ([]*Table, error) {
	const n, cost = 96, 4
	t := &Table{
		ID:    "E4.1",
		Title: fmt.Sprintf("All schemes on the Fig 2.1 loop (N=%d, cost=%d, P=4)", n, cost),
		Columns: []string{"scheme", "sync vars", "init ops", "storage", "cycles", "speedup",
			"util", "bus tx", "module acc", "sync ops"},
	}
	schemes := []codegen.Scheme{
		codegen.ProcessOriented{X: 8, Improved: true},
		codegen.ProcessOriented{X: 8, Improved: false},
		codegen.StatementOriented{},
		codegen.RefBased{},
		codegen.NewInstanceBased(),
	}
	for _, sch := range schemes {
		res, err := codegen.Run(workloads.Fig21(n, cost), sch, baseCfg(4))
		if err != nil {
			return nil, err
		}
		t.AddRow(res.Scheme, res.Foot.SyncVars, res.Foot.InitOps, res.Foot.StorageWords,
			res.Stats.Cycles, res.Speedup(), res.Stats.Utilization(),
			res.Stats.BusBroadcasts, res.Stats.ModuleAccesses, res.Stats.SyncOps)
	}
	t.Note("every run is checked for serial equivalence before being reported.")

	t2 := &Table{
		ID:      "E4.2",
		Title:   "Generated program for one interior iteration (basic primitives, Fig 4.2b)",
		Columns: []string{"#", "operation"},
	}
	m, ops, err := fig42bProgram(n, cost)
	if err != nil {
		return nil, err
	}
	for i, op := range ops {
		t2.AddRow(i+1, m.Render(op.Tag))
	}
	return []*Table{t, t2}, nil
}

// fig42bProgram instruments the Fig 2.1 loop (N=n) with the basic
// process-oriented primitives over X=4 counters and returns the program of
// interior iteration 10 (Fig 4.2b) with the machine it was built on.
func fig42bProgram(n, cost int64) (*sim.Machine, []sim.Op, error) {
	w := workloads.Fig21(n, cost)
	m := sim.New(baseCfg(4))
	w.Setup(m.Mem())
	prog, _, err := codegen.ProcessOriented{X: 4, Improved: false}.Instrument(m, w)
	if err != nil {
		return nil, nil, err
	}
	return m, prog(nil, 10), nil
}

// E5ImprovedPrimitives measures Fig 4.3's improved primitives and the
// section-6 write-coverage optimization.
func E5ImprovedPrimitives() ([]*Table, error) {
	const n, cost = 96, 2
	t := &Table{
		ID:      "E5.1",
		Title:   fmt.Sprintf("Basic vs improved primitives, write coverage on/off (N=%d, X=2, P=4)", n),
		Columns: []string{"primitives", "bus latency", "coverage", "bus tx", "tx saved", "cycles", "wait cycles"},
	}
	for _, improved := range []bool{false, true} {
		for _, lat := range []int64{1, 8} {
			for _, coverage := range []bool{false, true} {
				cfg := baseCfg(4)
				cfg.BusLatency = lat
				cfg.BusCoverage = coverage
				res, err := codegen.Run(workloads.Fig21(n, cost),
					codegen.ProcessOriented{X: 2, Improved: improved}, cfg)
				if err != nil {
					return nil, err
				}
				name := "basic (set/release)"
				if improved {
					name = "improved (mark/transfer)"
				}
				t.AddRow(name, lat, onOff(coverage), res.Stats.BusBroadcasts, res.Stats.BusSaved,
					res.Stats.Cycles, res.Stats.WaitSyncTotal())
			}
		}
	}
	t.Note("mark_PC skips updates while ownership is pending, so the improved primitives")
	t.Note("broadcast less; coverage elides queued writes superseded by a newer one, which")
	t.Note("only happens once the bus is slow enough for writes to queue up.")
	return []*Table{t}, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
