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
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// Sem is one statement's semantics: given the iteration's index vector, the
// values of the statement's Reads (in declaration order) and the
// iteration's scratch locals, it returns the values for the statement's
// Writes (in declaration order). Locals carry intra-iteration temporaries
// (like t2, t3 in Fig 2.1) between statements; each iteration gets a fresh
// map.
type Sem func(idx []int64, in []int64, locals map[string]int64) []int64

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
	// Setup declares and initializes the arrays the semantics touch.
	Setup func(mem *sim.Mem)
	// CostOf, when set, overrides statement costs per iteration — used by
	// the delayed-iteration experiments (one long-running instance).
	CostOf func(s *deps.Stmt, idx []int64) int64

	serial memo[serialRun]
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
	hint := 0
	return func(iter int64) []sim.Op {
		idx := w.Nest.IndexOf(iter)
		locals := make(map[string]int64)
		ops := make([]sim.Op, 0, hint)
		for _, s := range w.Nest.FlatBody(idx) {
			ops = append(ops, sim.Compute(w.cost(s, idx), w.execInPlace(mem, idx, s, locals), s.Name))
		}
		if len(ops) > hint {
			hint = len(ops)
		}
		return ops
	}
}

// execInPlace is the normal (un-renamed) binding: reads and writes go
// directly to the memory arrays.
func (w *Workload) execInPlace(mem *sim.Mem, idx []int64, s *deps.Stmt, locals map[string]int64) func() {
	sem := w.Sem[s]
	if sem == nil {
		if len(s.Writes) > 0 {
			panic(fmt.Sprintf("codegen: statement %s writes but has no semantics", s.Name))
		}
		return nil
	}
	return func() {
		in := make([]int64, len(s.Reads))
		for k, r := range s.Reads {
			in[k] = readRef(mem, r, idx)
		}
		out := sem(idx, in, locals)
		if len(out) != len(s.Writes) {
			panic(fmt.Sprintf("codegen: statement %s semantics returned %d values for %d writes",
				s.Name, len(out), len(s.Writes)))
		}
		for k, wr := range s.Writes {
			writeRef(mem, wr, idx, out[k])
		}
	}
}

func readRef(mem *sim.Mem, r deps.Ref, idx []int64) int64 {
	switch len(r.Index) {
	case 1:
		a := mem.Lookup(r.Array)
		if a == nil {
			panic("codegen: array not declared in Setup: " + r.Array)
		}
		return a.Get(r.Index[0].Eval(idx))
	case 2:
		g := mem.LookupGrid(r.Array)
		if g == nil {
			panic("codegen: grid not declared in Setup: " + r.Array)
		}
		return g.Get(r.Index[0].Eval(idx), r.Index[1].Eval(idx))
	default:
		panic(fmt.Sprintf("codegen: %d-dimensional reference unsupported", len(r.Index)))
	}
}

func writeRef(mem *sim.Mem, r deps.Ref, idx []int64, v int64) {
	switch len(r.Index) {
	case 1:
		mem.Lookup(r.Array).Set(r.Index[0].Eval(idx), v)
	case 2:
		mem.LookupGrid(r.Array).Set(r.Index[0].Eval(idx), r.Index[1].Eval(idx), v)
	default:
		panic(fmt.Sprintf("codegen: %d-dimensional reference unsupported", len(r.Index)))
	}
}

// appendComputeOps appends the op(s) for one statement execution: the
// compute itself and, when the machine models a data-write latency and the
// statement writes shared arrays, a commit phase after which the written
// values become visible — the paper's requirement (1): a source may signal
// only after its effect can be observed. The statement semantics run at the
// end of the last op, so a scheme that published before the commit phase
// would let a consumer read stale values and fail serial equivalence. The
// op carrying the semantics is stamped with the statement's concrete
// element accesses for the happens-before race checkers when the machine
// records a sync trace, their only reader. Appending into the caller's
// program slice (instead of returning a fresh one) keeps the per-iteration
// instrumenters to one ops allocation each.
func appendComputeOps(ops []sim.Op, m *sim.Machine, w *Workload, idx []int64, s *deps.Stmt, locals map[string]int64) []sim.Op {
	exec := w.execInPlace(m.Mem(), idx, s, locals)
	var touch []sim.MemAccess
	if m.SyncTracing() {
		touch = stmtTouches(s, idx)
	}
	lat := m.Config().DataLatency
	if lat <= 0 || len(s.Writes) == 0 {
		op := sim.Compute(w.cost(s, idx), exec, s.Name)
		op.Touch = touch
		return append(ops, op)
	}
	return append(ops, sim.Compute(w.cost(s, idx), nil, s.Name), commitOp(lat, exec, s, touch))
}

// commitOp is a statement's commit phase under a data-write latency,
// tagged "<statement>:commit".
func commitOp(lat int64, exec func(), s *deps.Stmt, touch []sim.MemAccess) sim.Op {
	op := sim.Compute(lat, exec, "")
	op.Tag = sim.TagSf("%s:commit", s.Name)
	op.Touch = touch
	return op
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

// stmtPositions maps statements to their flattened body positions.
func stmtPositions(n *loop.Nest) map[*deps.Stmt]int {
	stmts := n.Stmts()
	pos := make(map[*deps.Stmt]int, len(stmts))
	for i, s := range stmts {
		pos[s] = i
	}
	return pos
}
