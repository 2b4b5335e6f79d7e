package codegen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/stmtorient"
)

// RunRuntime executes the workload as a Doacross on real goroutines using
// the process-oriented runtime primitives (core.PCSet) — the same
// synchronization placement the simulator-side ProcessOriented scheme
// computes, but with actual concurrency. It verifies serial equivalence
// and returns the resulting memory.
//
// This is the "library" path: a compiler front end (package lang, or a
// hand-built Workload) feeds the analysis, and the loop runs pipelined on
// threads with X folded process counters.
func RunRuntime(w *Workload, x, procs int) (*sim.Mem, error) {
	di, err := w.depInfo()
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	mem := sim.NewMem()
	w.Setup(mem)
	ips := w.bindInPlace(mem, nil)

	_, err = core.Runner{X: x, Procs: procs}.Run(w.Nest.Iterations(), func(iter int64, p *core.Proc) {
		idx := w.Nest.IndexOf(iter)
		f := w.newFrame(1)
		transferred := false
		for _, a := range di.schedule(nil, iter, idx) {
			switch a.kind {
			case actWait:
				p.Wait(a.dist, a.step)
			case actStmt:
				ips[a.pos].apply(f, iter, f.localsOf(1))
			case actPublish:
				p.Mark(a.step)
			case actTransfer:
				p.Transfer()
				transferred = true
			}
		}
		if !transferred {
			// Loops without any source statement still pass ownership so
			// the Runner's protocol completes.
			p.Transfer()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("codegen: runtime execution of %s: %w", w.Name, err)
	}

	if diff := w.serialOracle().mem.Diff(mem); diff != "" {
		return nil, fmt.Errorf("codegen: runtime execution of %s violates serial equivalence:\n%s", w.Name, diff)
	}
	return mem, nil
}

// runWorkers self-schedules iterations 1..n over procs goroutines in
// non-decreasing order (the dispatch discipline every runtime scheme here
// relies on for liveness).
func runWorkers(n int64, procs int, body func(iter int64)) {
	if procs < 1 {
		procs = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// RunRuntimeStatement executes the workload on real goroutines under the
// statement-oriented scheme: k physical statement counters (0 = one per
// source statement) with the Advance/Await protocol, verified against
// serial execution.
func RunRuntimeStatement(w *Workload, k, procs int) (*sim.Mem, error) {
	di, err := w.depInfo()
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	sg := buildSCGrouping(di, k)
	scs := stmtorient.NewSCSet(sg.k)
	mem := sim.NewMem()
	w.Setup(mem)
	ips := w.bindInPlace(mem, nil)
	si := w.stmtTable()

	runWorkers(w.Nest.Iterations(), procs, func(iter int64) {
		idx := w.Nest.IndexOf(iter)
		f := w.newFrame(1)
		advanced := make(map[int64]bool)
		for _, p := range si.flat(nil, idx) {
			for _, a := range di.incoming[p] {
				scs.Await(sg.group[a.src], iter-a.dist)
			}
			ips[p].apply(f, iter, f.localsOf(1))
			if g := sg.group[p]; sg.lastOfGroup[p] && !advanced[g] {
				scs.Advance(g, iter)
				advanced[g] = true
			}
		}
		// Advances are owed on every path, including for groups whose
		// last member hides in a skipped branch arm.
		for g := int64(0); g < int64(sg.k); g++ {
			if !advanced[g] && len(di.sources) > 0 {
				scs.Advance(g, iter)
				advanced[g] = true
			}
		}
	})

	if diff := w.serialOracle().mem.Diff(mem); diff != "" {
		return nil, fmt.Errorf("codegen: statement runtime execution of %s violates serial equivalence:\n%s", w.Name, diff)
	}
	return mem, nil
}

// RunRuntimeRefBased executes the workload on real goroutines under the
// reference-based key scheme: one atomic key per element with ticketed
// accesses, verified against serial execution. A statement's accesses are
// grouped per element on the minimum ticket, matching the simulator-side
// code generator.
func RunRuntimeRefBased(w *Workload, procs int) (*sim.Mem, error) {
	plan := w.dataPlan()
	rk := dataorient.NewRuntimeKeys(plan)
	mem := sim.NewMem()
	w.Setup(mem)
	ips := w.bindInPlace(mem, nil)
	si := w.stmtTable()

	runWorkers(w.Nest.Iterations(), procs, func(iter int64) {
		idx := w.Nest.IndexOf(iter)
		f := w.newFrame(1)
		var order []int
		var tickets []int64
		for _, pos := range si.flat(nil, idx) {
			accs := plan.Accesses(iter, pos)
			order, tickets = minTickets(order[:0], tickets[:0], accs)
			for j, ei := range order {
				rk.AcquireTicket(ei, tickets[j])
			}
			ips[pos].apply(f, iter, f.localsOf(1))
			for i := range accs {
				rk.Release(&accs[i])
			}
		}
	})

	if diff := w.serialOracle().mem.Diff(mem); diff != "" {
		return nil, fmt.Errorf("codegen: ref-based runtime execution of %s violates serial equivalence:\n%s", w.Name, diff)
	}
	return mem, nil
}

// RunRuntimePipelined executes a depth-2 workload on real goroutines with
// the outer loop as the Doacross and the inner loop serial inside each
// process, publishing inner progress every g inner iterations — the
// runtime counterpart of the PipelinedOuter scheme (Example 1's
// asynchronous pipelining). It verifies serial equivalence.
func RunRuntimePipelined(w *Workload, x, procs int, g int64) (*sim.Mem, error) {
	arcs, err := pipelineArcs(w)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	if g < 1 {
		g = 1
	}
	mem := sim.NewMem()
	w.Setup(mem)
	ips := w.bindInPlace(mem, nil)
	si := w.stmtTable()
	outer, inner := w.Nest.Indexes[0], w.Nest.Indexes[1]

	_, err = core.Runner{X: x, Procs: procs}.Run(outer.Extent(), func(lpid int64, p *core.Proc) {
		i := outer.Lo + lpid - 1
		sinceMark := int64(0)
		for j := inner.Lo; j <= inner.Hi; j++ {
			idx := []int64{i, j}
			for _, a := range arcs {
				d1, d2 := a.Dist[0], a.Dist[1]
				srcJ := j - d2
				if lpid-d1 < 1 || srcJ < inner.Lo || srcJ > inner.Hi {
					continue
				}
				p.Wait(d1, srcJ-inner.Lo+1)
			}
			iter := w.Nest.LpidOf(idx)
			f := w.newFrame(1)
			for _, pos := range si.flat(nil, idx) {
				ips[pos].apply(f, iter, f.localsOf(1))
			}
			sinceMark++
			if sinceMark == g && j < inner.Hi {
				p.Mark(j - inner.Lo + 1)
				sinceMark = 0
			}
		}
		p.Transfer()
	})
	if err != nil {
		return nil, fmt.Errorf("codegen: pipelined runtime execution of %s: %w", w.Name, err)
	}

	if diff := w.serialOracle().mem.Diff(mem); diff != "" {
		return nil, fmt.Errorf("codegen: pipelined runtime execution of %s violates serial equivalence:\n%s", w.Name, diff)
	}
	return mem, nil
}
