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
// and keeps them on the value. Set every field, CostOf and Setup included,
// before the first Run. Runs of one Workload may proceed concurrently.
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

	serial memo[serialRun]
	stmts  memo[*stmtInfo]
	deps   memo[*depInfo]
	plan   memo[*dataorient.Plan]
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

// serialRun is the serial oracle: the workload's cycles and final memory
// when its iterations run one after another on one processor. It is
// shared by every run of the workload, so it is never written after
// construction.
type serialRun struct {
	cycles int64
	mem    *sim.Mem
}

// serialOracle returns the workload's serial execution.
func (w *Workload) serialOracle() serialRun {
	r, _ := w.serial.get(func() (serialRun, error) {
		mem := sim.NewMem()
		w.Setup(mem)
		return serialRun{cycles: sim.ExecSerial(w.Nest.Iterations(), w.serialProgram(mem)), mem: mem}, nil
	})
	return r
}

// stmtInfo is the per-workload statement table every run shares.
type stmtInfo struct {
	list []*deps.Stmt       // flattened body order
	pos  map[*deps.Stmt]int // position in list
	// maxReads and maxWrites size a frame's input and output buffers.
	maxReads, maxWrites int
}

// stmtTable returns the workload's statement table.
func (w *Workload) stmtTable() *stmtInfo {
	si, _ := w.stmts.get(func() (*stmtInfo, error) {
		list := w.Nest.Stmts()
		si := &stmtInfo{list: list, pos: make(map[*deps.Stmt]int, len(list))}
		for i, s := range list {
			si.pos[s] = i
			si.maxReads = max(si.maxReads, len(s.Reads))
			si.maxWrites = max(si.maxWrites, len(s.Writes))
		}
		return si, nil
	})
	return si
}

// depInfo returns the workload's dependence summary (analyzeWorkload).
func (w *Workload) depInfo() (*depInfo, error) {
	return w.deps.get(func() (*depInfo, error) { return analyzeWorkload(w) })
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
	serial := w.serialOracle()

	m := sim.New(cfg)
	if trace {
		m.EnableTrace()
	}
	if syncTrace {
		m.EnableSyncTrace()
	}
	w.Setup(m.Mem())
	prog, foot, err := sch.Instrument(m, w)
	if err != nil {
		return Result{}, nil, fmt.Errorf("codegen: instrument %s: %w", sch.Name(), err)
	}
	// Most schemes run one process per (coalesced) iteration; schemes that
	// pipeline an outer loop report their own process count.
	iters := w.Nest.Iterations()
	if pc, ok := sch.(interface{ Processes(*Workload) int64 }); ok {
		iters = pc.Processes(w)
	}
	stats, err := m.RunLoop(iters, prog)
	if err != nil {
		// The machine still carries whatever trace it recorded before the
		// failure; return it so the dynamic checker can examine the run.
		return Result{}, m, fmt.Errorf("codegen: %s on %s: %w", sch.Name(), w.Name, err)
	}
	sch.Finalize(m.Mem())
	if diff := serial.mem.Diff(m.Mem()); diff != "" {
		return Result{}, m, fmt.Errorf("codegen: %s on %s violates serial equivalence:\n%s", sch.Name(), w.Name, diff)
	}
	return Result{Scheme: sch.Name(), Stats: stats, Foot: foot, SerialCycles: serial.cycles}, m, nil
}

// serialProgram builds the pure-compute program bound to the given memory.
func (w *Workload) serialProgram(mem *sim.Mem) sim.Program {
	r := w.bindStmts(mem, 0, false)
	var body []*deps.Stmt
	return func(ops []sim.Op, iter int64) []sim.Op {
		idx := w.Nest.IndexInto(r.progIdx, iter)
		body = w.Nest.FlatBodyInto(body, idx)
		for _, s := range body {
			ops = append(ops, sim.Compute(w.cost(s, idx), r.effs[r.info.pos[s]], iter, s.Name))
		}
		return ops
	}
}

// frame is the scratch a statement execution works in: the index vector,
// the input and output values and the locals of the iteration it belongs
// to. A simulated run has one frame, sized once and shared by every
// statement effect of the run: the machine applies one effect at a time,
// each to completion, so no two executions ever use it at once. The
// goroutine executors run iterations concurrently, so each of their
// iterations has a frame of its own, newFrame(1), read with localsOf(1).
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
	buf := make([]int64, depth+si.maxReads+si.maxWrites+int(iters)*w.Locals)
	return &frame{
		nest:   w.Nest,
		idx:    buf[:depth:depth],
		in:     buf[depth : depth+si.maxReads : depth+si.maxReads],
		out:    buf[depth+si.maxReads : depth+si.maxReads+si.maxWrites : depth+si.maxReads+si.maxWrites],
		nLocal: w.Locals,
		locals: buf[depth+si.maxReads+si.maxWrites:],
	}
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
// run's frame.
type inPlace struct {
	f             *frame
	sem           Sem
	reads, writes []boundRef
}

// Apply implements sim.Effect.
func (e *inPlace) Apply(iter int64) { e.apply(e.f, iter, e.f.localsOf(iter)) }

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
// statement position (nil for a statement without semantics) over the
// run's memory and frame, plus what the run's compute ops depend on.
type stmtRun struct {
	w    *Workload
	info *stmtInfo
	effs []sim.Effect
	// progIdx is the program builder's own index buffer: effects decode
	// into the frame's, and a program may be called between two effects.
	progIdx []int64
	lat     int64
	tracing bool
}

// newStmtRun returns a run binding with no effects yet, for a machine with
// the given data latency and sync-trace setting.
func (w *Workload) newStmtRun(lat int64, tracing bool) *stmtRun {
	si := w.stmtTable()
	return &stmtRun{w: w, info: si, effs: make([]sim.Effect, len(si.list)),
		progIdx: make([]int64, w.Nest.Depth()), lat: lat, tracing: tracing}
}

// semOf returns statement s's semantics, nil for a statement that writes
// nothing and has none.
func (w *Workload) semOf(s *deps.Stmt) Sem {
	sem := w.Sem[s]
	if sem == nil && len(s.Writes) > 0 {
		panic(fmt.Sprintf("codegen: statement %s writes but has no semantics", s.Name))
	}
	return sem
}

// bindStmts binds every statement to mem in place, for a run whose machine
// has the given data latency and sync-trace setting.
func (w *Workload) bindStmts(mem *sim.Mem, lat int64, tracing bool) *stmtRun {
	r := w.newStmtRun(lat, tracing)
	ips := w.bindInPlace(mem, w.newFrame(w.Nest.Iterations()))
	for pos := range ips {
		if ips[pos].sem != nil {
			r.effs[pos] = &ips[pos]
		}
	}
	return r
}

// bindInPlace resolves every statement's references against mem, by
// position; a statement without semantics gets a zero inPlace (nil sem).
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
		sem := w.semOf(s)
		if sem == nil {
			continue
		}
		e := &effs[pos]
		e.f, e.sem = f, sem
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

// bindMachine binds the statements for a run on m: in place against its
// memory, under its data latency and sync-trace setting.
func (w *Workload) bindMachine(m *sim.Machine) *stmtRun {
	return w.bindStmts(m.Mem(), m.Config().DataLatency, m.SyncTracing())
}

// appendCompute appends the op(s) for one execution of statement s in
// iteration iter (index vector idx): the compute itself and, when the
// machine models a data-write latency and the statement writes shared
// arrays, a commit phase after which the written values become visible —
// the paper's requirement (1): a source may signal only after its effect
// can be observed. The statement's effect is applied to iter at the end of
// the last op, so a scheme that published before the commit phase would
// let a consumer read stale values and fail serial equivalence. That op
// carries touch, the statement's concrete element accesses for the
// happens-before race checkers, which callers build only when the machine
// records a sync trace (r.tracing). It appends into the caller's program
// slice, which the machine recycles from iteration to iteration.
func (r *stmtRun) appendCompute(ops []sim.Op, s *deps.Stmt, iter int64, idx []int64, touch []sim.MemAccess) []sim.Op {
	eff := r.effs[r.info.pos[s]]
	cost := r.w.cost(s, idx)
	if r.lat <= 0 || len(s.Writes) == 0 {
		op := sim.Compute(cost, eff, iter, s.Name)
		op.Touch = touch
		return append(ops, op)
	}
	commit := sim.Compute(r.lat, eff, iter, "")
	commit.Tag = sim.TagSf("%s:commit", s.Name)
	commit.Touch = touch
	return append(ops, sim.Compute(cost, nil, 0, s.Name), commit)
}

// appendStmt is appendCompute for an in-place statement, with its element
// accesses as the touch list when tracing.
func (r *stmtRun) appendStmt(ops []sim.Op, s *deps.Stmt, iter int64, idx []int64) []sim.Op {
	var touch []sim.MemAccess
	if r.tracing {
		touch = stmtTouches(s, idx)
	}
	return r.appendCompute(ops, s, iter, idx, touch)
}

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
