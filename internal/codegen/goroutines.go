package codegen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/spin"
)

// waitWatchdog bounds one wait of RunGoroutines once it has entered the
// sleeping tier of its backoff: a wait still unsatisfied after it is a
// program that can never finish, reported instead of hanging.
var waitWatchdog = 10 * time.Second

// errStopped ends a worker whose run another worker has already failed.
var errStopped = errors.New("stopped")

// RunGoroutines executes the workload under the scheme on procs goroutines
// and verifies serial equivalence, returning the resulting memory. It runs
// the very program the scheme emits for the simulator, so the goroutine
// run checks the program that Run and dsvet check, for every scheme.
//
// The scheme instruments a machine that is never run: it only declares the
// variables, holds the memory and builds the program. Each declared
// variable becomes one atomic word seeded with its initial value, and the
// five op kinds run on those words:
//   - a compute applies the statement's effect;
//   - a write stores its value;
//   - an RMW adds its value;
//   - a conditional write stores its value when the word is at least its
//     guard;
//   - a wait spins with backoff until the word reaches its threshold.
//
// The simulated bus is weaker than these sequentially consistent atomics
// (a register write is seen by other processors only when its broadcast
// commits), so a program that is correct on the simulator is correct here
// too. Iterations are dispatched in order, one at a time, to procs
// workers: no dispatched iteration then waits on one that is not, so the
// lowest unfinished iteration can always proceed. A wait that never ends
// is reported with its op and iteration.
func RunGoroutines(w *Workload, sch Scheme, procs int) (*sim.Mem, error) {
	m := sim.New(sim.Config{Processors: 1})
	prog, _, iters, err := instrument(m, w, sch)
	if err != nil {
		return nil, fmt.Errorf("codegen: instrument %s: %w", sch.Name(), err)
	}
	g := &goroutineRun{m: m, prog: prog, iters: iters, vars: make([]atomic.Int64, m.VarCount()),
		backoff: spin.New(spin.Config{Watchdog: waitWatchdog})}
	for v := range g.vars {
		g.vars[v].Store(m.VarValue(sim.VarID(v)))
	}
	var wg sync.WaitGroup
	for range max(procs, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.work(); err != nil && g.stop.CompareAndSwap(false, true) {
				g.err = err
			}
		}()
	}
	wg.Wait()
	if g.err != nil {
		return nil, fmt.Errorf("codegen: %s on %s on goroutines: %w", sch.Name(), w.Name, g.err)
	}
	if err := checkSerial(w, sch, m.Mem()); err != nil {
		return nil, err
	}
	return m.Mem(), nil
}

// goroutineRun is one RunGoroutines execution, shared by its workers.
type goroutineRun struct {
	m       *sim.Machine // holds the effects and names the ops refer to
	prog    sim.Program
	iters   int64
	vars    []atomic.Int64 // by sim.VarID
	backoff spin.Backoff   // every wait starts from a copy

	// mu serializes dispatch and program building: programs share per-run
	// scratch, so no two may be built at once.
	mu   sync.Mutex
	next int64 // the last iteration dispatched

	// stop is set by the first worker to fail, which alone writes err;
	// the others see it at their next wait or dispatch.
	stop atomic.Bool
	err  error
}

// work runs iterations until every one is dispatched or the run stops.
func (g *goroutineRun) work() error {
	var (
		ops []sim.Op
		fr  workerFrame
	)
	for {
		g.mu.Lock()
		if g.next == g.iters || g.stop.Load() {
			g.mu.Unlock()
			return nil
		}
		g.next++
		iter := g.next
		ops = g.prog(ops[:0], iter)
		g.mu.Unlock()
		for i := range ops {
			if err := g.exec(&ops[i], iter, &fr); err != nil {
				return err
			}
		}
	}
}

// exec runs one op of iteration iter.
func (g *goroutineRun) exec(op *sim.Op, iter int64, fr *workerFrame) error {
	switch op.Kind {
	case sim.OpCompute:
		switch e := g.m.Effect(op.Eff).(type) {
		case nil:
		case *inPlace:
			f := fr.of(e.f)
			e.apply(f, op.Arg, f.localsOf(op.Arg))
		case *renamed:
			e.applyIn(fr.of(e.f), op.Arg)
		default:
			return fmt.Errorf("iteration %d: %s: effect %T cannot run on goroutines", iter, g.m.Render(op.Tag), e)
		}
	case sim.OpWrite:
		g.vars[op.Var].Store(op.Value)
	case sim.OpRMW:
		g.vars[op.Var].Add(op.Value)
	case sim.OpWriteIf:
		if v := &g.vars[op.Var]; v.Load() >= op.CondGE {
			v.Store(op.Value)
		}
	case sim.OpWait:
		v := &g.vars[op.Var]
		for b := g.backoff; v.Load() < op.Value; {
			if g.stop.Load() {
				return errStopped
			}
			if err := b.Pause(); err != nil {
				return fmt.Errorf("iteration %d stuck at %s (%s = %d, waits for >= %d): %w",
					iter, g.m.Render(op.Tag), g.m.VarName(op.Var), v.Load(), op.Value, err)
			}
		}
	}
	return nil
}

// workerFrame is a worker's fork of the run's statement frame: the
// effects of one run share a frame, whose index and value scratch two
// workers must not use at once.
type workerFrame struct {
	src, own *frame
}

// of returns the worker's fork of frame f.
func (fr *workerFrame) of(f *frame) *frame {
	if fr.src != f {
		fr.src, fr.own = f, f.fork()
	}
	return fr.own
}
