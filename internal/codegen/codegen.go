// Package codegen places synchronization operations into Doacross loop
// bodies: given a workload (a loop nest with statement semantics) and a
// synchronization scheme, it produces the per-iteration op programs the
// machine simulator executes — the role a concurrentizing compiler plays in
// the paper (section 5, "it can be incorporated into a concurrentizing
// compiler using algorithms similar to [18]").
//
// Multiply-nested loops are implicitly coalesced: iterations are numbered
// by linearized process id and dependence distances are linearized
// (Example 2), so every scheme below works on a depth-1 view.
//
// Run executes a workload under a scheme and verifies serial equivalence:
// the machine's memory after the parallel run must equal memory after
// serial execution, which fails loudly if a scheme misses a dependence.
package codegen

import (
	"fmt"
	"sync"

	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// Sem is one statement's semantics: given the iteration's index vector and
// the values of the statement's Reads (in declaration order), it stores the
// values for the statement's Writes (in declaration order) into out.
// locals holds the iteration's Workload.Locals scratch slots, which carry
// intra-iteration temporaries (like t2, t3 in Fig 2.1) between statements;
// every iteration's slots start at zero. All four slices belong to the
// caller and are reused once Sem returns, so Sem must not keep them.
type Sem func(idx, in, locals, out []int64)

// Workload is a loop nest with executable semantics.
//
// A Workload is immutable once it has been run: its first Run computes the
// run invariants every later run of any scheme and configuration shares —
// the serial oracle, the dependence analysis and the data-oriented plan —
// and keeps them on the value, the cost-free ones in its Shape. Set every
// field, CostOf, Setup and Shape included, before the first Run. Runs of
// one Workload may proceed concurrently.
type Workload struct {
	Name string
	Nest *loop.Nest
	// Sem gives each body statement its semantics. Statements without an
	// entry must have no Writes.
	Sem map[*deps.Stmt]Sem
	// Locals is the number of iteration-local scalar slots the semantics
	// use (Sem's locals).
	Locals int
	// Setup declares and initializes the arrays the semantics touch.
	Setup func(mem *sim.Mem)
	// CostOf, when set, overrides statement costs per iteration — used by
	// the delayed-iteration experiments (one long-running instance).
	CostOf func(s *deps.Stmt, idx []int64) int64
	// Shape, when set, holds the workload's cost-free run invariants (see
	// Shape). Nil means the workload keeps its own.
	Shape *Shape

	own          Shape
	serialCycles memo[int64]
	stmts        memo[*stmtInfo]
	plan         memo[*dataorient.Plan]
}

// Shape holds the run invariants of a workload that no statement cost
// enters: the serial oracle's final memory image and the dependence
// summary. Workloads that differ only in their costs — the same loop nest,
// semantics and Setup — may share one Shape: hand it to each as its Shape
// field before that workload's first Run, and the first run of any of them
// computes what every later one reuses. The zero value is an empty Shape,
// ready for use. A Shape refers to no Workload and no statement, so it
// outlives the workload that computed it; it holds the image's words and
// the summary's position tables only.
type Shape struct {
	serial memo[sim.Image]
	deps   memo[*depInfo]
}

// shape returns the Shape the workload's cost-free invariants live in.
func (w *Workload) shape() *Shape {
	if w.Shape != nil {
		return w.Shape
	}
	return &w.own
}

// memo holds one run invariant of a Workload, computed by the first run
// that asks for it. Unlike a bare sync.Once it re-raises a panic of the
// computation on every later call, so a malformed workload fails the same
// way on every run instead of handing out a zero value.
type memo[T any] struct {
	once     sync.Once
	v        T
	err      error
	panicked any
}

func (m *memo[T]) get(compute func() (T, error)) (T, error) {
	m.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				m.panicked = r
			}
		}()
		m.v, m.err = compute()
	})
	if m.panicked != nil {
		panic(m.panicked)
	}
	return m.v, m.err
}

// serialImage returns the serial oracle's final memory: every statement
// instance applied in place, iterations in order. No cost enters it, so it
// lives in the workload's Shape.
func (w *Workload) serialImage() sim.Image {
	img, _ := w.shape().serial.get(func() (sim.Image, error) {
		mem := sim.NewMem()
		w.Setup(mem)
		si := w.stmtTable()
		// Iterations run one at a time, so they share one iteration's
		// locals, cleared as each starts.
		f := w.newFrame(1)
		ips := w.bindInPlace(mem, f)
		locals := f.localsOf(1)
		var body []int
		idx := f.walk()
		for iter := int64(1); iter <= w.Nest.Iterations(); iter++ {
			clear(locals)
			idx = w.Nest.IndexInto(idx, iter)
			body = si.flat(body, idx)
			for _, pos := range body {
				ips[pos].apply(f, iter, locals)
			}
		}
		return mem.Snapshot(), nil
	})
	return img
}

// serialCyclesOf returns the serial oracle's cycles: every executed
// statement instance's cost, summed over the iterations in order. It reads
// only the flat bodies and the workload's own costs (CostOf included), so
// it stays on the Workload while the image may be shared.
func (w *Workload) serialCyclesOf() int64 {
	c, _ := w.serialCycles.get(func() (int64, error) {
		si := w.stmtTable()
		if si.straight != nil && w.CostOf == nil {
			// Every iteration runs every statement at its fixed cost.
			var body int64
			for _, s := range si.list {
				body += s.Cost
			}
			return body * w.Nest.Iterations(), nil
		}
		var cycles int64
		var body []int
		idx := make([]int64, w.Nest.Depth())
		for iter := int64(1); iter <= w.Nest.Iterations(); iter++ {
			idx = w.Nest.IndexInto(idx, iter)
			body = si.flat(body, idx)
			for _, pos := range body {
				cycles += w.cost(si.list[pos], idx)
			}
		}
		return cycles, nil
	})
	return c
}

// stmtInfo is the per-workload statement table every run shares. Code
// that runs per statement per iteration names a statement by its position
// in list and reads per-position slices, never a map keyed by statement.
type stmtInfo struct {
	list []*deps.Stmt // flattened body order
	// body is the nest's body with every statement resolved to its
	// position in list.
	body []pnode
	// straight lists every position in order when the body has no
	// conditionals, so every iteration executes all of list; nil otherwise.
	straight []int
	// maxReads and maxWrites size a frame's input and output buffers.
	maxReads, maxWrites int
}

// pnode is one node of a nest body with its statement resolved to a
// position in the statement table: a statement (pos >= 0) or a conditional
// (pos < 0) with its arms resolved the same way.
type pnode struct {
	pos       int
	cond      func(idx []int64) bool
	then, els []pnode
}

// resolveBody resolves nodes, numbering their statements from *next in the
// order loop.Nest.Stmts lists them: textual order, a conditional's THEN arm
// before its ELSE arm.
func resolveBody(nodes []loop.Node, next *int) []pnode {
	out := make([]pnode, 0, len(nodes))
	for _, node := range nodes {
		switch v := node.(type) {
		case loop.StmtNode:
			out = append(out, pnode{pos: *next})
			*next++
		case loop.IfNode:
			n := pnode{pos: -1, cond: v.Cond}
			n.then = resolveBody(v.Then, next)
			n.els = resolveBody(v.Else, next)
			out = append(out, n)
		}
	}
	return out
}

// stmtTable returns the workload's statement table.
func (w *Workload) stmtTable() *stmtInfo {
	si, _ := w.stmts.get(func() (*stmtInfo, error) {
		list := w.Nest.Stmts()
		si := &stmtInfo{list: list}
		next := 0
		si.body = resolveBody(w.Nest.Body, &next)
		if !w.Nest.HasBranches() {
			si.straight = make([]int, len(list))
		}
		for i, s := range list {
			if si.straight != nil {
				si.straight[i] = i
			}
			si.maxReads = max(si.maxReads, len(s.Reads))
			si.maxWrites = max(si.maxWrites, len(s.Writes))
		}
		return si, nil
	})
	return si
}

// flat returns the positions of the statements the iteration with index
// vector idx executes, in body order: the shared straight list (callers
// must not modify it) or, for a body with conditionals, a list built in
// dst's storage.
func (si *stmtInfo) flat(dst []int, idx []int64) []int {
	if si.straight != nil {
		return si.straight
	}
	return appendFlat(dst[:0], si.body, idx)
}

func appendFlat(out []int, nodes []pnode, idx []int64) []int {
	for i := range nodes {
		switch n := &nodes[i]; {
		case n.pos >= 0:
			out = append(out, n.pos)
		case n.cond(idx):
			out = appendFlat(out, n.then, idx)
		default:
			out = appendFlat(out, n.els, idx)
		}
	}
	return out
}

// depInfo returns the workload's dependence summary (analyzeWorkload),
// which lives in its Shape.
func (w *Workload) depInfo() (*depInfo, error) {
	return w.shape().deps.get(func() (*depInfo, error) { return analyzeWorkload(w) })
}

// dataPlan returns the workload's data-oriented synchronization plan.
func (w *Workload) dataPlan() *dataorient.Plan {
	p, _ := w.plan.get(func() (*dataorient.Plan, error) { return dataorient.BuildPlan(w.Nest), nil })
	return p
}

// cost returns the statement's compute cost at the given iteration.
func (w *Workload) cost(s *deps.Stmt, idx []int64) int64 {
	if w.CostOf != nil {
		return w.CostOf(s, idx)
	}
	return s.Cost
}

// Footprint is a scheme's synchronization-variable cost, the paper's
// primary comparison axis.
type Footprint struct {
	// SyncVars is the number of synchronization variables used.
	SyncVars int
	// InitOps is the number of operations needed to initialize them.
	InitOps int64
	// StorageWords is total synchronization storage including renamed data
	// copies (instance-based).
	StorageWords int64
}

// Scheme instruments a workload for one synchronization discipline.
type Scheme interface {
	Name() string
	// Instrument declares the scheme's variables on the machine and
	// returns the iteration program plus the scheme's footprint.
	Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error)
	// Finalize runs after the simulation; schemes with renamed storage
	// fold their versions back into the machine memory here.
	Finalize(mem *sim.Mem)
}

// Result is one measured scheme run.
type Result struct {
	Scheme       string
	Stats        sim.Stats
	Foot         Footprint
	SerialCycles int64
}

// Speedup is the serial-to-parallel cycle ratio.
func (r Result) Speedup() float64 { return r.Stats.Speedup(r.SerialCycles) }

// Run executes the workload under the scheme on a machine with the given
// configuration, checks serial equivalence, and returns the measurements.
func Run(w *Workload, sch Scheme, cfg sim.Config) (Result, error) {
	res, _, err := run(w, sch, cfg, false, false)
	return res, err
}

// RunTraced is Run with event tracing enabled; it additionally returns the
// recorded per-processor timeline.
func RunTraced(w *Workload, sch Scheme, cfg sim.Config) (Result, []sim.TraceEvent, error) {
	res, m, err := run(w, sch, cfg, true, false)
	if m == nil {
		return res, nil, err
	}
	return res, m.Trace(), err
}

// RunSyncTraced is Run with synchronization-event recording enabled; it
// additionally returns the machine's sync trace (signals, released waits and
// memory accesses in causal order) for the dynamic happens-before checker.
func RunSyncTraced(w *Workload, sch Scheme, cfg sim.Config) (Result, []sim.SyncEvent, error) {
	res, m, err := run(w, sch, cfg, false, true)
	if m == nil {
		return res, nil, err
	}
	return res, m.SyncTraceEvents(), err
}

func run(w *Workload, sch Scheme, cfg sim.Config, trace, syncTrace bool) (Result, *sim.Machine, error) {
	if err := cfg.Check(); err != nil {
		return Result{}, nil, fmt.Errorf("codegen: invalid machine configuration: %w", err)
	}
	// The serial oracle runs first, so a workload whose semantics fail
	// fails there, before the machine runs.
	serialCycles := w.serialCyclesOf()
	w.serialImage()

	m := sim.New(cfg)
	if trace {
		m.EnableTrace()
	}
	if syncTrace {
		m.EnableSyncTrace()
	}
	prog, foot, iters, err := instrument(m, w, sch)
	if err != nil {
		return Result{}, nil, fmt.Errorf("codegen: instrument %s: %w", sch.Name(), err)
	}
	stats, err := m.RunLoop(iters, prog)
	if err != nil {
		// The machine still carries whatever trace it recorded before the
		// failure; return it so the dynamic checker can examine the run.
		return Result{}, m, fmt.Errorf("codegen: %s on %s: %w", sch.Name(), w.Name, err)
	}
	if err := checkSerial(w, sch, m.Mem()); err != nil {
		return Result{}, m, err
	}
	return Result{Scheme: sch.Name(), Stats: stats, Foot: foot, SerialCycles: serialCycles}, m, nil
}

// instrument sets the workload's memory up on m and instruments it under
// the scheme, returning the program, the footprint and the number of
// processes to run the program for. Most schemes run one process per
// (coalesced) iteration; schemes that pipeline an outer loop report their
// own process count. Every executor and ExtractSyncProgram start here.
func instrument(m *sim.Machine, w *Workload, sch Scheme) (sim.Program, Footprint, int64, error) {
	w.Setup(m.Mem())
	prog, foot, err := sch.Instrument(m, w)
	if err != nil {
		return nil, Footprint{}, 0, err
	}
	iters := w.Nest.Iterations()
	if pc, ok := sch.(interface{ Processes(*Workload) int64 }); ok {
		iters = pc.Processes(w)
	}
	return prog, foot, iters, nil
}

// checkSerial finishes an executed run: it folds the scheme's renamed
// storage back into mem (Finalize) and compares mem with the serial
// oracle's memory.
func checkSerial(w *Workload, sch Scheme, mem *sim.Mem) error {
	sch.Finalize(mem)
	if diff := w.serialImage().Diff(mem); diff != "" {
		return fmt.Errorf("codegen: %s on %s violates serial equivalence:\n%s", sch.Name(), w.Name, diff)
	}
	return nil
}

// frame is the scratch a statement execution works in: the index vector,
// the input and output values and the locals of the iteration it belongs
// to. A simulated run has one frame, sized once and shared by every
// statement effect of the run: the machine applies one effect at a time,
// each to completion, so no two executions ever use it at once.
// RunGoroutines applies effects on several workers at once, so each worker
// forks the run's frame: the fork has scratch of its own and shares the
// per-iteration locals, whose slots no two iterations share.
type frame struct {
	nest    *loop.Nest
	idx     []int64
	in, out []int64
	nLocal  int
	locals  []int64 // nLocal slots per iteration, iteration-major
}

// newFrame sizes a frame for the workload, with local slots for iters
// iterations.
func (w *Workload) newFrame(iters int64) *frame {
	si := w.stmtTable()
	depth := w.Nest.Depth()
	buf := make([]int64, 2*depth+si.maxReads+si.maxWrites+int(iters)*w.Locals)
	carve := func(n int) []int64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	return &frame{
		nest:   w.Nest,
		idx:    carve(2 * depth)[:depth], // walk's vector rides in its capacity
		in:     carve(si.maxReads),
		out:    carve(si.maxWrites),
		nLocal: w.Locals,
		locals: buf,
	}
}

// walk returns an index vector of the frame's own for the code that walks
// the iterations beside the effects (a program builder, the serial
// oracle): an effect decodes into idx, and may run between two of its
// steps. A fork has none.
func (f *frame) walk() []int64 {
	d := len(f.idx)
	return f.idx[d : 2*d : 2*d]
}

// fork returns a frame with the scratch of f's size and f's locals.
func (f *frame) fork() *frame {
	return &frame{nest: f.nest, idx: make([]int64, len(f.idx)), in: make([]int64, cap(f.in)),
		out: make([]int64, cap(f.out)), nLocal: f.nLocal, locals: f.locals}
}

// localsOf returns iteration iter's local slots.
func (f *frame) localsOf(iter int64) []int64 {
	lo := int(iter-1) * f.nLocal
	return f.locals[lo : lo+f.nLocal : lo+f.nLocal]
}

// boundRef is an array reference resolved against one memory, so an
// execution indexes the array directly instead of looking it up by name.
type boundRef struct {
	ix   []expr.Affine
	arr  *sim.Array
	grid *sim.Grid
}

func bindRef(mem *sim.Mem, r deps.Ref) boundRef {
	b := boundRef{ix: r.Index}
	switch len(r.Index) {
	case 1:
		if b.arr = mem.Lookup(r.Array); b.arr == nil {
			panic("codegen: array not declared in Setup: " + r.Array)
		}
	case 2:
		if b.grid = mem.LookupGrid(r.Array); b.grid == nil {
			panic("codegen: grid not declared in Setup: " + r.Array)
		}
	default:
		panic(fmt.Sprintf("codegen: %d-dimensional reference unsupported", len(r.Index)))
	}
	return b
}

func (b *boundRef) get(idx []int64) int64 {
	if b.arr != nil {
		return b.arr.Get(b.ix[0].Eval(idx))
	}
	return b.grid.Get(b.ix[0].Eval(idx), b.ix[1].Eval(idx))
}

func (b *boundRef) set(idx []int64, v int64) {
	if b.arr != nil {
		b.arr.Set(b.ix[0].Eval(idx), v)
		return
	}
	b.grid.Set(b.ix[0].Eval(idx), b.ix[1].Eval(idx), v)
}

// inPlace is the normal (un-renamed) binding of one statement: its
// semantics over references resolved against one memory. As a sim.Effect,
// Apply(iter) executes the statement instance of iteration iter in the
// run's frame; as a sim.Toucher it lists the elements that instance
// accesses.
type inPlace struct {
	f             *frame
	s             *deps.Stmt
	sem           Sem
	reads, writes []boundRef
}

// Apply implements sim.Effect.
func (e *inPlace) Apply(iter int64) { e.apply(e.f, iter, e.f.localsOf(iter)) }

// Touches implements sim.Toucher.
func (e *inPlace) Touches(iter int64) []sim.MemAccess {
	return stmtTouches(e.s, e.f.nest.IndexInto(e.f.idx, iter))
}

// apply executes the statement instance of iteration iter in frame f with
// the iteration's locals. A statement without semantics does nothing.
func (e *inPlace) apply(f *frame, iter int64, locals []int64) {
	if e.sem == nil {
		return
	}
	idx := f.nest.IndexInto(f.idx, iter)
	in := f.in[:len(e.reads)]
	for k := range e.reads {
		in[k] = e.reads[k].get(idx)
	}
	out := f.out[:len(e.writes)]
	e.sem(idx, in, locals, out)
	for k := range e.writes {
		e.writes[k].set(idx, out[k])
	}
}

// stmtRun is one run's binding of the workload's statements: an effect per
// statement position over the run's memory and frame, registered on the
// machine, plus what the run's compute ops depend on. A statement without
// semantics has no effect (0), unless the machine records a sync trace:
// then it gets one that does nothing but list its accesses, so its reads
// of shared data are traced.
type stmtRun struct {
	w    *Workload
	info *stmtInfo
	effs []sim.EffID
	// names is the first statement's name in the machine's name table;
	// the name of the statement at position pos is names+pos.
	names sim.StrID
	// progIdx is the program builder's index vector, the frame's walk():
	// effects decode into the frame's idx, and a program may be called
	// between two effects.
	progIdx []int64
	lat     int64
}

// newStmtRun returns a run binding with no effects yet for a run on m in
// frame f, the statement names registered.
func (w *Workload) newStmtRun(m *sim.Machine, f *frame) *stmtRun {
	si := w.stmtTable()
	return &stmtRun{w: w, info: si, effs: make([]sim.EffID, len(si.list)),
		names:   m.AddNames(len(si.list), stmtNames(si.list)),
		progIdx: f.walk(), lat: m.Config().DataLatency}
}

// stmtNames names statement position pos by the statement's name.
type stmtNames []*deps.Stmt

func (s stmtNames) Name(pos int) string { return s[pos].Name }

// semOf returns statement s's semantics, nil for a statement that writes
// nothing and has none.
func (w *Workload) semOf(s *deps.Stmt) Sem {
	sem := w.Sem[s]
	if sem == nil && len(s.Writes) > 0 {
		panic(fmt.Sprintf("codegen: statement %s writes but has no semantics", s.Name))
	}
	return sem
}

// bindMachine binds every statement for a run on m: in place against its
// memory, under its data latency and sync-trace setting.
func (w *Workload) bindMachine(m *sim.Machine) *stmtRun {
	f := w.newFrame(w.Nest.Iterations())
	r := w.newStmtRun(m, f)
	ips := w.bindInPlace(m.Mem(), f)
	for pos := range ips {
		if ips[pos].sem != nil || m.SyncTracing() {
			r.effs[pos] = m.AddEffect(&ips[pos])
		}
	}
	return r
}

// bindInPlace resolves every statement's references against mem, by
// position; a statement without semantics gets no references (nil sem).
// The bindings share frame f.
func (w *Workload) bindInPlace(mem *sim.Mem, f *frame) []inPlace {
	si := w.stmtTable()
	refs := 0
	for _, s := range si.list {
		refs += len(s.Reads) + len(s.Writes)
	}
	bound := make([]boundRef, 0, refs)
	effs := make([]inPlace, len(si.list))
	for pos, s := range si.list {
		e := &effs[pos]
		e.f, e.s, e.sem = f, s, w.semOf(s)
		if e.sem == nil {
			continue
		}
		for _, rd := range s.Reads {
			bound = append(bound, bindRef(mem, rd))
		}
		e.reads = bound[len(bound)-len(s.Reads):]
		for _, wr := range s.Writes {
			bound = append(bound, bindRef(mem, wr))
		}
		e.writes = bound[len(bound)-len(s.Writes):]
	}
	return effs
}

// appendStmt appends the op(s) for one execution of the statement at
// position pos in iteration iter (index vector idx): the compute itself
// and, when the machine models a data-write latency and the statement
// writes shared arrays, a commit phase after which the written values
// become visible — the paper's requirement (1): a source may signal only
// after its effect can be observed. The statement's effect is applied to
// iter at the end of the last op, so a scheme that published before the
// commit phase would let a consumer read stale values and fail serial
// equivalence. The last op carries the statement's position (Op.Stmt).
// It fills the ops in place in the caller's program slice, which the
// machine recycles from iteration to iteration.
func (r *stmtRun) appendStmt(ops []sim.Op, pos int, iter int64, idx []int64) []sim.Op {
	s, eff, name := r.info.list[pos], r.effs[pos], r.names+sim.StrID(pos)
	cost := r.w.cost(s, idx)
	if r.lat <= 0 || len(s.Writes) == 0 {
		ops = sim.AppendCompute(ops, cost, eff, iter, sim.Text(name))
	} else {
		ops = sim.AppendCompute(ops, cost, 0, 0, sim.Text(name))
		ops = sim.AppendCompute(ops, r.lat, eff, iter, sim.TagSf(tagCommit, name))
	}
	ops[len(ops)-1].Stmt = int32(pos + 1)
	return ops
}

// tagCommit tags a statement's commit phase.
var tagCommit = sim.RegisterFormat("%s:commit")

// stmtTouches lists the concrete shared-memory elements one execution of
// the statement accesses at the given iteration.
func stmtTouches(s *deps.Stmt, idx []int64) []sim.MemAccess {
	out := make([]sim.MemAccess, 0, len(s.Writes)+len(s.Reads))
	for _, r := range s.Reads {
		out = append(out, refTouch(r, idx, false, 0))
	}
	for _, w := range s.Writes {
		out = append(out, refTouch(w, idx, true, 0))
	}
	return out
}

func refTouch(r deps.Ref, idx []int64, write bool, ver int64) sim.MemAccess {
	a := sim.MemAccess{Array: r.Array, Dims: len(r.Index), Ver: ver, Write: write}
	for d := 0; d < len(r.Index) && d < 2; d++ {
		a.Coord[d] = r.Index[d].Eval(idx)
	}
	return a
}
