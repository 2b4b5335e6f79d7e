package codegen

import (
	"fmt"
	"strings"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/stmtorient"
)

// depInfo is the per-workload dependence summary every scheme shares. It is
// computed once per Workload (Workload.depInfo) and read-only after that.
type depInfo struct {
	pos      map[*deps.Stmt]int
	enforced []deps.Arc         // linearized, minimal
	incoming map[int][]deps.Arc // by sink position
	sources  []int              // source positions, ascending
	step     map[int]int64      // source position -> step number (1-based)
	lastSrc  int                // position of the statically last source; -1 if none
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
	di := &depInfo{
		pos:      stmtPositions(w.Nest),
		enforced: enforced,
		incoming: make(map[int][]deps.Arc),
		step:     make(map[int]int64),
		lastSrc:  -1,
	}
	isSource := make(map[int]bool)
	for _, a := range di.enforced {
		di.incoming[a.Dst] = append(di.incoming[a.Dst], a)
		isSource[a.Src] = true
	}
	for p := 0; p < len(w.Nest.Stmts()); p++ {
		if isSource[p] {
			di.sources = append(di.sources, p)
			di.step[p] = int64(len(di.sources))
			di.lastSrc = p
		}
	}
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
func (di *depInfo) maxSourceStep(nodes []loop.Node) int64 {
	var max int64
	for _, n := range nodes {
		s := int64(0)
		switch v := n.(type) {
		case loop.StmtNode:
			s = di.step[di.pos[v.S]]
		case loop.IfNode:
			s = di.maxSourceStep(v.Then)
			if e := di.maxSourceStep(v.Else); e > s {
				s = e
			}
		}
		if s > max {
			max = s
		}
	}
	return max
}

// topLevelStmt reports whether the flattened position belongs to a
// top-level (unconditioned) statement of the body.
func topLevelStmt(n *loop.Nest, pos int, di *depInfo) bool {
	for _, node := range n.Body {
		if v, ok := node.(loop.StmtNode); ok && di.pos[v.S] == pos {
			return true
		}
	}
	return false
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
	di, err := w.depInfo()
	if err != nil {
		return nil, Footprint{}, err
	}
	pcs := core.NewSimPCs(m, s.X)
	foot := Footprint{SyncVars: s.X, InitOps: int64(s.X), StorageWords: int64(s.X)}

	// acts is a schedule buffer reused across iterations. Safe: each run
	// instruments its own scheme, and the machine calls prog sequentially.
	var acts []action
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexOf(iter)
		locals := make(map[string]int64)
		gotPC := false
		needOwn := func() {
			if !s.Improved && !gotPC {
				ops = append(ops, pcs.GetPC(iter))
				gotPC = true
			}
		}
		acts = di.schedule(acts[:0], w.Nest, iter, idx)
		for _, a := range acts {
			switch a.kind {
			case actWait:
				ops = append(ops, pcs.WaitPC(iter, a.dist, a.step))
			case actStmt:
				ops = appendComputeOps(ops, m, w, idx, a.stmt, locals)
			case actPublish:
				if s.Improved {
					ops = append(ops, pcs.MarkPC(iter, a.step))
				} else {
					needOwn()
					ops = append(ops, pcs.SetPC(iter, a.step))
				}
			case actTransfer:
				needOwn()
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
// (the all-paths rule of Example 3).
type scGrouping struct {
	k            int
	group        map[int]int64 // source pos -> physical SC
	lastOfGroup  map[int]bool  // positions carrying a group's advance
	advanceAtEnd bool
}

func buildSCGrouping(di *depInfo, w *Workload, k int) scGrouping {
	if k == 0 || k > len(di.sources) {
		k = len(di.sources)
	}
	if k == 0 {
		k = 1 // loop without sources still needs a valid SC set
	}
	g := scGrouping{
		k:           k,
		group:       make(map[int]int64, len(di.sources)),
		lastOfGroup: make(map[int]bool),
	}
	lastPosOfGroup := make(map[int64]int)
	for ord, p := range di.sources {
		c := int64(ord % k)
		g.group[p] = c
		lastPosOfGroup[c] = p
	}
	for _, p := range lastPosOfGroup {
		if topLevelStmt(w.Nest, p, di) {
			g.lastOfGroup[p] = true
		} else {
			g.advanceAtEnd = true
		}
	}
	return g
}

// Instrument implements Scheme.
func (s StatementOriented) Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error) {
	di, err := w.depInfo()
	if err != nil {
		return nil, Footprint{}, err
	}
	sg := buildSCGrouping(di, w, s.K)
	k := sg.k
	scs := stmtorient.NewSimSCs(m, k)
	group, lastOfGroup, advanceAtEnd := sg.group, sg.lastOfGroup, sg.advanceAtEnd
	foot := Footprint{SyncVars: k, InitOps: int64(k), StorageWords: int64(k)}

	advanced := make([]bool, k) // per-iteration scratch, cleared on entry
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexOf(iter)
		locals := make(map[string]int64)
		clear(advanced)
		var walk func(nodes []loop.Node)
		walk = func(nodes []loop.Node) {
			for _, node := range nodes {
				switch v := node.(type) {
				case loop.StmtNode:
					p := di.pos[v.S]
					for _, a := range di.incoming[p] {
						d := a.Dist[0]
						ops = append(ops, scs.AwaitOp(group[a.Src], iter-d))
					}
					ops = appendComputeOps(ops, m, w, idx, v.S, locals)
					if g, ok := group[p]; ok && lastOfGroup[p] && !advanced[g] {
						ops = scs.AdvanceOps(ops, g, iter)
						advanced[g] = true
					}
				case loop.IfNode:
					// Advances are emitted at static positions regardless
					// of the branch outcome (the all-paths rule of
					// Example 3), so arms only contribute their computes
					// and awaits; group advances whose last member hides
					// inside an arm are deferred to the body end.
					if v.Cond(idx) {
						walk(v.Then)
					} else {
						walk(v.Else)
					}
				}
			}
		}
		walk(w.Nest.Body)
		if advanceAtEnd {
			for g := int64(0); g < int64(k); g++ {
				if !advanced[g] {
					ops = scs.AdvanceOps(ops, g, iter)
					advanced[g] = true
				}
			}
		}
		return ops
	}
	return prog, foot, nil
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
	di := stmtPositions(w.Nest)

	// Scratch buffers reused across iterations (prog is called sequentially
	// by the machine and nothing below escapes the call); a statement's
	// reference count is small, so a linear scan replaces the per-statement
	// dedup map. First-seen element order is preserved exactly.
	var (
		accs    []*dataorient.Access
		order   []dataorient.Elem
		tickets []int64
	)
	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexOf(iter)
		locals := make(map[string]int64)
		for _, s := range w.Nest.FlatBody(idx) {
			p := di[s]
			nRefs := len(s.Writes) + len(s.Reads)
			accs = accs[:0]
			for slot := 0; slot < nRefs; slot++ {
				accs = append(accs, plan.ByID[dataorient.AccessID{Lpid: iter, StmtPos: p, RefSlot: slot}])
			}
			// The statement executes as one atomic compute, so per element
			// the wait condition is the minimum ticket among the
			// statement's own accesses (a statement reading and writing
			// the same element must not wait on its own increment).
			order, tickets = order[:0], tickets[:0]
			for _, a := range accs {
				seen := false
				for j, e := range order {
					if e == a.Elem {
						if a.Ticket < tickets[j] {
							tickets[j] = a.Ticket
						}
						seen = true
						break
					}
				}
				if !seen {
					order = append(order, a.Elem)
					tickets = append(tickets, a.Ticket)
				}
			}
			for j, e := range order {
				ops = append(ops, keys.WaitTicketOp(e, tickets[j]))
			}
			ops = appendComputeOps(ops, m, w, idx, s, locals)
			for _, a := range accs {
				ops = append(ops, keys.IncOp(a))
			}
		}
		return ops
	}
	return prog, foot, nil
}

// InstanceBased is the instance-based (HEP full/empty) scheme: renamed
// single-assignment storage with consumable reader copies. It is stateful
// (the renamed storage lives between Instrument and Finalize); build one
// per run with NewInstanceBased.
type InstanceBased struct {
	plan *dataorient.Plan
	vs   *dataorient.VersionStore
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
	// Initial values come from a pristine copy of the workload memory.
	initMem := sim.NewMem()
	w.Setup(initMem)
	vs := dataorient.NewVersionStore(func(e dataorient.Elem) int64 { return readElem(initMem, e) })
	ib.plan, ib.vs = plan, vs
	di := stmtPositions(w.Nest)

	prog := func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexOf(iter)
		locals := make(map[string]int64)
		for _, s := range w.Nest.FlatBody(idx) {
			s := s
			p := di[s]
			// One slice in RefSlot order (writes, then reads), which the
			// exec closure below keeps alive.
			accs := make([]*dataorient.Access, len(s.Writes)+len(s.Reads))
			for k := range accs {
				accs[k] = plan.ByID[dataorient.AccessID{Lpid: iter, StmtPos: p, RefSlot: k}]
			}
			writeAccs, readAccs := accs[:len(s.Writes)], accs[len(s.Writes):]
			for _, a := range readAccs {
				ops = append(ops, bits.ConsumeOp(a))
			}
			sem := w.Sem[s]
			exec := func() {
				in := make([]int64, len(readAccs))
				for k, a := range readAccs {
					in[k] = vs.Get(a.Elem, a.Epoch)
				}
				if sem == nil {
					return
				}
				out := sem(idx, in, locals)
				for k, a := range writeAccs {
					vs.Set(a.Elem, a.Epoch+1, out[k])
				}
			}
			// Renamed storage is single-assignment: race checking sees each
			// (element, version) as its own location, so the renaming's
			// elimination of anti/output conflicts is visible to the checker.
			var touches []sim.MemAccess
			if m.SyncTracing() {
				touches = make([]sim.MemAccess, 0, len(readAccs)+len(writeAccs))
				for _, a := range readAccs {
					touches = append(touches, accessTouch(a.Elem, a.Epoch, false))
				}
				for _, a := range writeAccs {
					touches = append(touches, accessTouch(a.Elem, a.Epoch+1, true))
				}
			}
			if lat := m.Config().DataLatency; lat > 0 && len(writeAccs) > 0 {
				// Renamed copies also take DataLatency to land before the
				// full/empty bits may be set (requirement (1)).
				ops = append(ops, sim.Compute(w.cost(s, idx), nil, s.Name), commitOp(lat, exec, s, touches))
			} else {
				op := sim.Compute(w.cost(s, idx), exec, s.Name)
				op.Touch = touches
				ops = append(ops, op)
			}
			for _, a := range writeAccs {
				ops = bits.FillOps(ops, a)
			}
		}
		return ops
	}
	return prog, foot, nil
}

// Finalize folds the last version of every renamed element back into the
// machine memory so the serial-equivalence check can compare.
func (ib *InstanceBased) Finalize(mem *sim.Mem) {
	if ib.plan == nil {
		return
	}
	for _, e := range ib.plan.Order {
		if v, ok := ib.vs.Last(e); ok {
			writeElem(mem, e, v)
		}
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

func readElem(mem *sim.Mem, e dataorient.Elem) int64 {
	switch e.Dims {
	case 1:
		return mem.Lookup(e.Array).Get(e.C[0])
	case 2:
		return mem.LookupGrid(e.Array).Get(e.C[0], e.C[1])
	default:
		panic("codegen: unsupported element dimensionality")
	}
}

func writeElem(mem *sim.Mem, e dataorient.Elem, v int64) {
	switch e.Dims {
	case 1:
		mem.Lookup(e.Array).Set(e.C[0], v)
	case 2:
		mem.LookupGrid(e.Array).Set(e.C[0], e.C[1], v)
	default:
		panic("codegen: unsupported element dimensionality")
	}
}
