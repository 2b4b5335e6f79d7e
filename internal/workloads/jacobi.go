package workloads

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/sim"
)

// Jacobi is the paper's other Example 5 application: "the discretization
// method for solving partial differential equations [19], in which a
// process only needs to synchronize with processes computing its
// neighboring regions". P processors own contiguous strips of a 1-D domain
// and run Sweeps Jacobi smoothing sweeps; between sweeps a processor needs
// only its left and right neighbors' strips from the previous sweep — one
// process counter per processor (step = completed sweep) replaces a global
// barrier.
type Jacobi struct {
	P      int   // processors / strips
	Strip  int64 // cells per strip
	Sweeps int   // smoothing sweeps
	Cost   int64 // cycles per cell per sweep
}

// Cells returns the domain size.
func (j Jacobi) Cells() int64 { return int64(j.P) * j.Strip }

// Setup declares the per-sweep value buffers U[sweep][cell] with fixed
// boundary cells at both ends, filled with deterministic inputs.
func (j Jacobi) Setup(mem *sim.Mem) *sim.Grid {
	n := j.Cells()
	u := mem.Grid("U", 0, int64(j.Sweeps), -1, n)
	for c := int64(-1); c <= n; c++ {
		u.Set(0, c, (c*c)%53+2*c)
	}
	for s := int64(1); s <= int64(j.Sweeps); s++ {
		// Dirichlet boundaries stay fixed every sweep.
		u.Set(s, -1, u.Get(0, -1))
		u.Set(s, n, u.Get(0, n))
	}
	return u
}

// SerialMem runs the sweeps serially: the oracle and baseline cycles.
func (j Jacobi) SerialMem() (*sim.Mem, int64) {
	mem := sim.NewMem()
	u := j.Setup(mem)
	n := j.Cells()
	for s := 1; s <= j.Sweeps; s++ {
		for c := int64(0); c < n; c++ {
			u.Set(int64(s), c, (u.Get(int64(s-1), c-1)+u.Get(int64(s-1), c+1))/2)
		}
	}
	return mem, int64(j.Sweeps) * n * j.Cost
}

// jacobiSweeps is one run's strip sweep as a sim.Effect: an op's Arg names
// processor pid's sweep s as s*P+pid.
type jacobiSweeps struct {
	j  Jacobi
	u  *sim.Grid
	id sim.EffID // its name on the run's machine
}

// Apply implements sim.Effect.
func (sw *jacobiSweeps) Apply(arg int64) {
	j, u := sw.j, sw.u
	sweep, pid := arg/int64(j.P), arg%int64(j.P)
	lo := pid * j.Strip
	for c := lo; c < lo+j.Strip; c++ {
		u.Set(sweep, c, (u.Get(sweep-1, c-1)+u.Get(sweep-1, c+1))/2)
	}
}

// setup declares the run's buffers and returns its sweep effect,
// registered on m.
func (j Jacobi) setup(m *sim.Machine) *jacobiSweeps {
	sw := &jacobiSweeps{j: j, u: j.Setup(m.Mem())}
	sw.id = m.AddEffect(sw)
	return sw
}

// tagSweep tags processor p's sweep s.
var tagSweep = sim.RegisterFormat("jacobi p%d s%d")

// sweepOp builds processor pid's compute for one sweep over its strip.
func (j Jacobi) sweepOp(sw *jacobiSweeps, pid, sweep int) sim.Op {
	return sim.Compute(j.Strip*j.Cost, sw.id, int64(sweep*j.P+pid), sim.Tagf(tagSweep, int64(pid), int64(sweep)))
}

// NeighborSync builds the paper's regime: after sweep s a processor marks
// its own PC and waits only for its left and right neighbors to finish
// sweep s before starting sweep s+1. Run with m.RunProcesses.
func (j Jacobi) NeighborSync(m *sim.Machine) [][]sim.Op {
	sw := j.setup(m)
	pcs := make([]sim.VarID, j.P)
	for pid := 0; pid < j.P; pid++ {
		pcs[pid] = m.NewRegVar(fmt.Sprintf("jacPC[%d]", pid), 0)
	}
	progs := make([][]sim.Op, j.P)
	for pid := 0; pid < j.P; pid++ {
		var ops []sim.Op
		for s := 1; s <= j.Sweeps; s++ {
			ops = append(ops, j.sweepOp(sw, pid, s))
			ops = append(ops, sim.WriteVar(pcs[pid], int64(s), m.Text(fmt.Sprintf("jac:mark p%d s%d", pid, s))))
			if s < j.Sweeps {
				if pid > 0 {
					ops = append(ops, sim.WaitGE(pcs[pid-1], int64(s), m.Text(fmt.Sprintf("jac:waitL p%d s%d", pid, s))))
				}
				if pid < j.P-1 {
					ops = append(ops, sim.WaitGE(pcs[pid+1], int64(s), m.Text(fmt.Sprintf("jac:waitR p%d s%d", pid, s))))
				}
			}
		}
		progs[pid] = ops
	}
	return progs
}

// WithBarrier builds the conventional alternative: a global barrier
// between sweeps.
func (j Jacobi) WithBarrier(m *sim.Machine, b BarrierOps) [][]sim.Op {
	sw := j.setup(m)
	progs := make([][]sim.Op, j.P)
	for pid := 0; pid < j.P; pid++ {
		var ops []sim.Op
		for s := 1; s <= j.Sweeps; s++ {
			ops = append(ops, j.sweepOp(sw, pid, s))
			if s < j.Sweeps {
				ops = append(ops, b(pid, int64(s))...)
			}
		}
		progs[pid] = ops
	}
	return progs
}
