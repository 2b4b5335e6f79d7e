package codegen

import (
	"fmt"
	"slices"
	"strings"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/stmtorient"
)

// depInfo is the dependence summary every scheme shares. It is computed
// once per Shape (Workload.depInfo) and read-only after that. Its
// per-statement tables are slices indexed by statement position; it names
// no statement and keeps no arc, so a Shape holding it refers to nothing of
// the workload that computed it.
type depInfo struct {
	incoming [][]depArc // by sink position: its enforced (linearized, minimal) arcs
	sources  []int      // source positions, ascending
	step     []int64    // by position: source step number (1-based), 0 for a non-source
	lastSrc  int        // position of the statically last source; -1 if none
	// endTransfer reports that ownership must be passed at the body end:
	// the statically last source sits inside a branch (Example 3).
	endTransfer bool
}

// depArc is an enforced dependence arc as its sink reads it: the source
// statement's position and the linearized distance.
type depArc struct {
	src  int
	dist int64
}

func analyzeWorkload(w *Workload) (*depInfo, error) {
	lin := w.Nest.LinearGraph()
	if unknown := lin.UnknownArcs(); len(unknown) > 0 {
		return nil, fmt.Errorf("%d dependences without constant distance (%s); constant-distance schemes cannot enforce them",
			len(unknown), describeUnknown(unknown))
	}
	// Covering elimination assumes every statement executes each iteration;
	// with branches only deduplication is sound (a covering path through a
	// skipped arm would neither wait nor publish).
	enforced := lin.Enforced()
	if w.Nest.HasBranches() {
		enforced = lin.Deduped()
	}
	si := w.stmtTable()
	di := &depInfo{
		incoming: make([][]depArc, len(si.list)),
		step:     make([]int64, len(si.list)),
		lastSrc:  -1,
	}
	// Every sink's arcs are carved from one slab, in enforced order.
	for _, a := range enforced {
		di.step[a.Dst]++ // the sink's arc count, until it is carved
	}
	arcs, sources := make([]depArc, len(enforced)), 0
	for p, n := range di.step {
		di.incoming[p], arcs = arcs[:0:n], arcs[n:]
		di.step[p] = 0
	}
	for _, a := range enforced {
		di.incoming[a.Dst] = append(di.incoming[a.Dst], depArc{src: a.Src, dist: a.Dist[0]})
		if di.step[a.Src] == 0 {
			di.step[a.Src] = -1 // numbered below, in position order
			sources++
		}
	}
	di.sources = make([]int, 0, sources)
	for p, st := range di.step {
		if st != 0 {
			di.sources = append(di.sources, p)
			di.step[p] = int64(len(di.sources))
			di.lastSrc = p
		}
	}
	di.endTransfer = di.lastSrc >= 0 && !topLevel(si.body, di.lastSrc)
	return di, nil
}

// describeUnknown summarizes unknown-distance arcs by their classified
// reason, e.g. "1 coupled-subscripts, 2 gcd-inconclusive".
func describeUnknown(arcs []deps.Arc) string {
	counts := make(map[deps.UnknownReason]int)
	for _, a := range arcs {
		counts[a.Reason]++
	}
	var parts []string
	for _, r := range []deps.UnknownReason{deps.ReasonCoupled, deps.ReasonSymbolic, deps.ReasonGCD} {
		if n := counts[r]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, r))
		}
	}
	return strings.Join(parts, ", ")
}

// maxSourceStep returns the highest step among sources inside the nodes
// (recursively); 0 if none.
func (di *depInfo) maxSourceStep(nodes []pnode) int64 {
	var s int64
	for i := range nodes {
		if n := &nodes[i]; n.pos >= 0 {
			s = max(s, di.step[n.pos])
		} else {
			s = max(s, di.maxSourceStep(n.then), di.maxSourceStep(n.els))
		}
	}
	return s
}

// topLevel reports whether position pos belongs to a top-level
// (unconditioned) statement of the body.
func topLevel(body []pnode, pos int) bool {
	return slices.ContainsFunc(body, func(n pnode) bool { return n.pos == pos })
}

// ---- Process-oriented scheme (section 4) ----

// ProcessOriented is the paper's scheme: X folded process counters, with
// either the basic primitives of Fig 4.2a (get/set/release) or the improved
// primitives of Fig 4.3 (mark/transfer).
type ProcessOriented struct {
	X        int
	Improved bool
}

// Name implements Scheme.
func (s ProcessOriented) Name() string {
	if s.Improved {
		return fmt.Sprintf("process(X=%d,improved)", s.X)
	}
	return fmt.Sprintf("process(X=%d,basic)", s.X)
}

// Finalize implements Scheme (no renamed storage).
func (ProcessOriented) Finalize(*sim.Mem) {}

// Instrument implements Scheme.
func (s ProcessOriented) Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error) {
	if s.X < 1 {
		return nil, Footprint{}, fmt.Errorf("need at least one process counter, got X=%d", s.X)
	}
	di, err := w.depInfo()
	if err != nil {
		return nil, Footprint{}, err
	}
	pcs := core.NewSimPCs(m, s.X)
	foot := Footprint{SyncVars: s.X, InitOps: int64(s.X), StorageWords: int64(s.X)}
	r := w.bindMachine(m)

	// acts is a schedule buffer reused across iterations. Safe: each run
	// instruments its own scheme, and the machine calls prog sequentially.
	var acts []action
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexInto(r.progIdx, iter)
		// The basic primitives acquire the PC once, before the
		// iteration's first publication or transfer.
		owned := s.Improved
		acts = di.schedule(acts[:0], r.info.body, iter, idx)
		for _, a := range acts {
			switch a.kind {
			case actWait:
				ops = pcs.WaitPC(ops, iter, a.dist, a.step)
			case actStmt:
				ops = r.appendStmt(ops, a.pos, iter, idx)
			case actPublish:
				if s.Improved {
					ops = pcs.MarkPC(ops, iter, a.step)
					continue
				}
				if !owned {
					ops, owned = pcs.GetPC(ops, iter), true
				}
				ops = pcs.SetPC(ops, iter, a.step)
			case actTransfer:
				if !owned {
					ops, owned = pcs.GetPC(ops, iter), true
				}
				ops = pcs.TransferPCOps(ops, iter)
			}
		}
		return ops
	}
	return prog, foot, nil
}

// ---- Statement-oriented scheme (section 3.2) ----

// StatementOriented is the Alliant-style Advance/Await scheme: one
// statement counter per source statement, folded onto K physical counters.
// Folded counters are advanced once per iteration, after the last member
// statement of the group — the sound but parallelism-losing discipline a
// compiler must adopt when SCs are scarce.
type StatementOriented struct {
	// K is the number of physical statement counters; 0 means one per
	// source statement.
	K int
}

// Name implements Scheme.
func (s StatementOriented) Name() string {
	if s.K == 0 {
		return "statement"
	}
	return fmt.Sprintf("statement(K=%d)", s.K)
}

// Finalize implements Scheme.
func (StatementOriented) Finalize(*sim.Mem) {}

// scGrouping folds the loop's source statements onto k physical statement
// counters and decides where each group's advance is emitted: after its
// last member when that member is unconditioned, otherwise at the body end
// (the all-paths rule of Example 3). Its tables are indexed by statement
// position.
type scGrouping struct {
	k            int
	group        []int64 // physical SC of a source; -1 for a non-source
	lastOfGroup  []bool  // positions carrying a group's advance
	advanceAtEnd bool
}

func buildSCGrouping(di *depInfo, body []pnode, k int) scGrouping {
	if k == 0 || k > len(di.sources) {
		k = len(di.sources)
	}
	if k == 0 {
		k = 1 // loop without sources still needs a valid SC set
	}
	g := scGrouping{
		k:           k,
		group:       make([]int64, len(di.step)),
		lastOfGroup: make([]bool, len(di.step)),
	}
	for p := range g.group {
		g.group[p] = -1
	}
	lastPosOfGroup := make([]int, k)
	for ord, p := range di.sources {
		c := ord % k
		g.group[p] = int64(c)
		lastPosOfGroup[c] = p
	}
	for _, p := range lastPosOfGroup[:min(k, len(di.sources))] {
		if topLevel(body, p) {
			g.lastOfGroup[p] = true
		} else {
			g.advanceAtEnd = true
		}
	}
	return g
}

// Instrument implements Scheme.
func (s StatementOriented) Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error) {
	if s.K < 0 {
		return nil, Footprint{}, fmt.Errorf("need a non-negative number of statement counters, got K=%d", s.K)
	}
	di, err := w.depInfo()
	if err != nil {
		return nil, Footprint{}, err
	}
	sg := buildSCGrouping(di, w.stmtTable().body, s.K)
	k := sg.k
	foot := Footprint{SyncVars: k, InitOps: int64(k), StorageWords: int64(k)}
	sw := &scWalker{di: di, sg: sg, scs: stmtorient.NewSimSCs(m, k), r: w.bindMachine(m),
		advanced: make([]bool, k)}
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		sw.ops, sw.iter, sw.idx = ops, iter, w.Nest.IndexInto(sw.r.progIdx, iter)
		clear(sw.advanced)
		sw.walk(sw.r.info.body)
		if sg.advanceAtEnd {
			for g := int64(0); g < int64(k); g++ {
				if !sw.advanced[g] {
					sw.ops = sw.scs.AdvanceOps(sw.ops, g, iter)
					sw.advanced[g] = true
				}
			}
		}
		ops = sw.ops
		sw.ops = nil // the machine owns the returned slice
		return ops
	}
	return prog, foot, nil
}

// scWalker builds one iteration of the statement-oriented program: a
// struct with a method rather than a recursive closure, which would be
// heap-allocated on every iteration. One walker serves a whole run.
type scWalker struct {
	di       *depInfo
	sg       scGrouping
	scs      *stmtorient.SimSCs
	r        *stmtRun
	advanced []bool // per-iteration scratch, cleared on entry

	ops  []sim.Op
	iter int64
	idx  []int64
}

func (sw *scWalker) walk(nodes []pnode) {
	di, sg := sw.di, &sw.sg
	for i := range nodes {
		n := &nodes[i]
		if p := n.pos; p >= 0 {
			for _, a := range di.incoming[p] {
				sw.ops = sw.scs.AwaitOps(sw.ops, sg.group[a.src], sw.iter-a.dist)
			}
			sw.ops = sw.r.appendStmt(sw.ops, p, sw.iter, sw.idx)
			if g := sg.group[p]; sg.lastOfGroup[p] && !sw.advanced[g] {
				sw.ops = sw.scs.AdvanceOps(sw.ops, g, sw.iter)
				sw.advanced[g] = true
			}
			continue
		}
		// Advances are emitted at static positions regardless of the branch
		// outcome (the all-paths rule of Example 3), so arms only
		// contribute their computes and awaits; group advances whose last
		// member hides inside an arm are deferred to the body end.
		if n.cond(sw.idx) {
			sw.walk(n.then)
		} else {
			sw.walk(n.els)
		}
	}
}

// ---- Data-oriented schemes (section 3.1) ----

// RefBased is the reference-based (Cedar key) scheme: one key per element,
// ticketed accesses through the memory modules.
type RefBased struct{}

// Name implements Scheme.
func (RefBased) Name() string { return "data(ref-based)" }

// Finalize implements Scheme.
func (RefBased) Finalize(*sim.Mem) {}

// Instrument implements Scheme.
func (RefBased) Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error) {
	plan := w.dataPlan()
	keys := dataorient.NewSimKeys(m, plan)
	f := plan.Footprint()
	foot := Footprint{SyncVars: int(f.Keys), InitOps: f.InitOps, StorageWords: f.Keys}
	r := w.bindMachine(m)

	// Scratch buffers reused across iterations (prog is called sequentially
	// by the machine and nothing below escapes the call).
	var (
		body    []int // statement positions
		order   []int // element indices in the plan's Order
		tickets []int64
	)
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexInto(r.progIdx, iter)
		body = r.info.flat(body, idx)
		for _, pos := range body {
			accs := plan.Accesses(iter, pos)
			order, tickets = minTickets(order[:0], tickets[:0], accs)
			for j, ei := range order {
				ops = keys.WaitTicketOps(ops, ei, tickets[j])
			}
			ops = r.appendStmt(ops, pos, iter, idx)
			for i := range accs {
				ops = keys.IncOps(ops, &accs[i])
			}
		}
		return ops
	}
	return prog, foot, nil
}

// minTickets appends to order each element a statement instance's
// accesses touch, in first-seen order, and to tickets the least ticket
// among its accesses to that element. The statement executes as one
// atomic compute, so that ticket is its wait condition: a statement
// reading and writing the same element must not wait on its own
// increment. A statement has few references, so a linear scan replaces a
// dedup map.
func minTickets(order []int, tickets []int64, accs []dataorient.Access) ([]int, []int64) {
	for i := range accs {
		a := &accs[i]
		j := slices.Index(order, a.ElemIdx)
		if j < 0 {
			order, tickets = append(order, a.ElemIdx), append(tickets, a.Ticket)
		} else if a.Ticket < tickets[j] {
			tickets[j] = a.Ticket
		}
	}
	return order, tickets
}

// InstanceBased is the instance-based (HEP full/empty) scheme: renamed
// single-assignment storage with consumable reader copies. It is stateful
// (the renamed storage lives between Instrument and Finalize); build one
// per run with NewInstanceBased.
type InstanceBased struct {
	vs *dataorient.VersionStore
}

// NewInstanceBased returns a fresh instance-based scheme.
func NewInstanceBased() *InstanceBased { return &InstanceBased{} }

// Name implements Scheme.
func (*InstanceBased) Name() string { return "data(instance-based)" }

// RenamedStorage reports that the scheme writes every value to a fresh
// renamed location, making anti- and output dependences vacuous.
func (*InstanceBased) RenamedStorage() bool { return true }

// Instrument implements Scheme.
func (ib *InstanceBased) Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error) {
	plan := w.dataPlan()
	bits := dataorient.NewSimBits(m, plan)
	f := plan.Footprint()
	foot := Footprint{
		SyncVars:     int(f.Bits),
		InitOps:      f.Bits,
		StorageWords: f.Bits + f.Copies,
	}
	// The machine memory keeps its initial values until Finalize (renamed
	// writes go to the version store), so it supplies every version 0.
	ib.vs = dataorient.NewVersionStore(plan, m.Mem())
	r := w.bindRenamed(m, plan, ib.vs)

	var body []int // statement positions
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexInto(r.progIdx, iter)
		body = r.info.flat(body, idx)
		for _, pos := range body {
			accs := plan.Accesses(iter, pos)
			nw := len(r.info.list[pos].Writes)
			writeAccs, readAccs := accs[:nw], accs[nw:]
			for i := range readAccs {
				ops = bits.ConsumeOps(ops, &readAccs[i])
			}
			// Renamed copies also take DataLatency to land before the
			// full/empty bits may be set (requirement (1)).
			ops = r.appendStmt(ops, pos, iter, idx)
			for i := range writeAccs {
				ops = bits.FillOps(ops, &writeAccs[i])
			}
		}
		return ops
	}
	return prog, foot, nil
}

// renamed is the instance-based binding of one statement: as a
// sim.Effect, Apply(iter) executes the statement instance of iteration
// iter over the run's version store, reading the versions its planned
// accesses name and storing the versions they create. As a sim.Toucher it
// lists those versions.
type renamed struct {
	f    *frame
	sem  Sem
	plan *dataorient.Plan
	vs   *dataorient.VersionStore
	pos  int
	nw   int // the statement's writes, which lead its accesses
}

// Apply implements sim.Effect.
func (e *renamed) Apply(iter int64) { e.applyIn(e.f, iter) }

// applyIn executes the statement instance of iteration iter in frame f. A
// statement without semantics does nothing.
func (e *renamed) applyIn(f *frame, iter int64) {
	if e.sem == nil {
		return
	}
	accs := e.plan.Accesses(iter, e.pos)
	writeAccs, readAccs := accs[:e.nw], accs[e.nw:]
	in := f.in[:len(readAccs)]
	for k := range readAccs {
		in[k] = e.vs.Get(readAccs[k].ElemIdx, readAccs[k].Epoch)
	}
	out := f.out[:e.nw]
	e.sem(f.nest.IndexInto(f.idx, iter), in, f.localsOf(iter), out)
	for k := range writeAccs {
		e.vs.Set(writeAccs[k].ElemIdx, writeAccs[k].Epoch+1, out[k])
	}
}

// Touches implements sim.Toucher. Renamed storage is single-assignment:
// race checking sees each (element, version) as its own location, so the
// renaming's elimination of anti/output conflicts is visible to the
// checker.
func (e *renamed) Touches(iter int64) []sim.MemAccess {
	accs := e.plan.Accesses(iter, e.pos)
	writeAccs, readAccs := accs[:e.nw], accs[e.nw:]
	touches := make([]sim.MemAccess, 0, len(accs))
	for _, a := range readAccs {
		touches = append(touches, accessTouch(e.plan.Order[a.ElemIdx], a.Epoch, false))
	}
	for _, a := range writeAccs {
		touches = append(touches, accessTouch(e.plan.Order[a.ElemIdx], a.Epoch+1, true))
	}
	return touches
}

// bindRenamed binds every statement to the version store vs for a run on
// m; statements without semantics get no effect unless m records a sync
// trace.
func (w *Workload) bindRenamed(m *sim.Machine, plan *dataorient.Plan, vs *dataorient.VersionStore) *stmtRun {
	f := w.newFrame(w.Nest.Iterations())
	r := w.newStmtRun(m, f)
	effs := make([]renamed, len(r.info.list))
	for pos, s := range r.info.list {
		sem := w.semOf(s)
		if sem == nil && !m.SyncTracing() {
			continue
		}
		effs[pos] = renamed{f: f, sem: sem, plan: plan, vs: vs, pos: pos, nw: len(s.Writes)}
		r.effs[pos] = m.AddEffect(&effs[pos])
	}
	return r
}

// Finalize folds the last version of every renamed element back into the
// machine memory so the serial-equivalence check can compare.
func (ib *InstanceBased) Finalize(mem *sim.Mem) {
	if ib.vs != nil {
		ib.vs.WriteBack(mem)
	}
}

// accessTouch maps a planned data-oriented access onto a race-checker
// location, version-qualified for renamed storage.
func accessTouch(e dataorient.Elem, ver int64, write bool) sim.MemAccess {
	a := sim.MemAccess{Array: e.Array, Dims: e.Dims, Ver: ver, Write: write}
	for d := 0; d < e.Dims && d < 2; d++ {
		a.Coord[d] = e.C[d]
	}
	return a
}
