package workloads

import (
	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/stmtorient"
)

// Relax is Example 1's simplified four-point relaxation
//
//	DO I=2,N; DO J=2,N
//	  S1: A[I,J] = A[I-1,J] + A[I,J-1]
//
// executed three ways: as a wavefront with a barrier between anti-diagonal
// fronts (Fig 5.1c), as an asynchronous pipeline where each outer iteration
// is a process synchronizing with its predecessor every G inner iterations
// through process counters (Fig 5.1b/d), and as the same pipeline over
// statement counters — which starves when the SCs are fewer than the
// pipeline's sync points.
type Relax struct {
	N    int64 // I and J range over 2..N
	Cost int64 // cycles per cell update
	G    int64 // inner iterations per synchronization point (pipeline)
}

// SetupGrid declares and initializes the relaxation grid with boundary
// values on row 1 and column 1.
func (r Relax) SetupGrid(mem *sim.Mem) *sim.Grid {
	a := mem.Grid("A", 1, r.N, 1, r.N)
	for i := int64(1); i <= r.N; i++ {
		a.Set(i, 1, 3*i+1)
		a.Set(1, i, i)
	}
	return a
}

// SerialMem runs the relaxation serially and returns the resulting memory
// and total compute cycles — the oracle and baseline.
func (r Relax) SerialMem() (*sim.Mem, int64) {
	mem := sim.NewMem()
	a := r.SetupGrid(mem)
	for i := int64(2); i <= r.N; i++ {
		for j := int64(2); j <= r.N; j++ {
			a.Set(i, j, a.Get(i-1, j)+a.Get(i, j-1))
		}
	}
	return mem, (r.N - 1) * (r.N - 1) * r.Cost
}

// cells is the cell update of one relaxation run as a sim.Effect: an op's
// Arg names its cell (i, j) as i*stride+j, with stride N+1.
type cells struct {
	a      *sim.Grid
	stride int64
	id     sim.EffID // its name on the run's machine
}

// Apply implements sim.Effect.
func (c *cells) Apply(arg int64) {
	i, j := arg/c.stride, arg%c.stride
	c.a.Set(i, j, c.a.Get(i-1, j)+c.a.Get(i, j-1))
}

// setup declares the run's grid and returns its cell-update effect,
// registered on m.
func (r Relax) setup(m *sim.Machine) *cells {
	c := &cells{a: r.SetupGrid(m.Mem()), stride: r.N + 1}
	c.id = m.AddEffect(c)
	return c
}

// tagRelax tags a cell update.
var tagRelax = sim.RegisterFormat("relax(%d,%d)")

// cell returns the compute op for one cell update.
func (r Relax) cell(c *cells, i, j int64) sim.Op {
	return sim.Compute(r.Cost, c.id, i*c.stride+j, sim.Tagf(tagRelax, i, j))
}

// groups returns the inner-loop group boundaries.
func (r Relax) groups() [][2]int64 { return loop.GroupRanges(2, r.N, r.G) }

// SyncPoints returns the number of synchronization points between two
// consecutive processes of the pipeline — the paper's N-1 for G=1.
func (r Relax) SyncPoints() int64 { return int64(len(r.groups())) }

// PipelinedPC builds the process-oriented pipeline of Fig 5.1b on the
// machine: the outer loop is a Doacross over processes i=2..N (lpid i-1),
// each enclosing the serial inner loop, with wait_PC(1,k)/mark_PC(k) per
// group and transfer_PC at the end. Run it with m.RunLoop(r.N-1, prog).
func (r Relax) PipelinedPC(m *sim.Machine, x int) sim.Program {
	pcs := core.NewSimPCs(m, x)
	c := r.setup(m)
	groups := r.groups()
	return func(ops []sim.Op, lpid int64) []sim.Op {
		i := lpid + 1 // process executes outer iteration I = lpid+1
		for _, g := range groups {
			k, end := g[0], g[1]
			if lpid > 1 {
				// Wait until process i-1 completed the group ending at
				// end (it marks step k after finishing [k, k+G-1]).
				ops = pcs.WaitPC(ops, lpid, 1, k)
			}
			for j := k; j <= end; j++ {
				ops = append(ops, r.cell(c, i, j))
			}
			ops = pcs.MarkPC(ops, lpid, k)
		}
		return pcs.TransferPCOps(ops, lpid)
	}
}

// PipelinedSC builds the same pipeline over K physical statement counters.
// Each sync point (group gi) is a logical counter folded onto SC[gi mod K].
// A shared SC must carry a single total order of advances; the only order
// that stays deadlock-free under in-order dispatch is process-major: all of
// process i's advances to the SC precede process i+1's. Consequently a
// process can enter a shared group only after its predecessor has passed
// the *last* group of that SC's class — with K < SyncPoints() the pipeline
// overlap collapses toward serial execution, which is Example 1's argument
// against statement-oriented synchronization; K >= SyncPoints() restores
// the dedicated-counter pipeline.
func (r Relax) PipelinedSC(m *sim.Machine, k int) sim.Program {
	scs := stmtorient.NewSimSCs(m, k)
	c := r.setup(m)
	groups := r.groups()
	// classCount[m] = number of groups folded onto SC m.
	classCount := make([]int64, k)
	for gi := range groups {
		classCount[gi%k]++
	}
	return func(ops []sim.Op, lpid int64) []sim.Op {
		i := lpid + 1
		for gi, g := range groups {
			cnt := classCount[gi%k]
			rank := int64(gi / k)
			if lpid > 1 {
				// Process i awaits process i-1's advance for this group:
				// its sequence number in the process-major order.
				ops = scs.AwaitOps(ops, int64(gi), (lpid-2)*cnt+rank+1)
			}
			for j := g[0]; j <= g[1]; j++ {
				ops = append(ops, r.cell(c, i, j))
			}
			ops = scs.AdvanceOps(ops, int64(gi), (lpid-1)*cnt+rank+1)
		}
		return ops
	}
}

// BarrierOps builds one barrier episode for the wavefront schedule.
type BarrierOps func(pid int, round int64) []sim.Op

// Wavefront builds the wavefront schedule of Fig 5.1c: per anti-diagonal
// front, processor pid computes every front cell whose rank ≡ pid (mod P),
// then all processors meet at a barrier. Run with m.RunProcesses.
func (r Relax) Wavefront(m *sim.Machine, barrier BarrierOps) [][]sim.Op {
	cs := r.setup(m)
	p := m.Config().Processors
	nest := loop.MustNew([]loop.Index{
		{Name: "I", Lo: 2, Hi: r.N}, {Name: "J", Lo: 2, Hi: r.N}}, nil)
	fronts := nest.AntiDiagonals()
	progs := make([][]sim.Op, p)
	for pid := 0; pid < p; pid++ {
		var ops []sim.Op
		for f, front := range fronts {
			for c, idx := range front {
				if c%p == pid {
					ops = append(ops, r.cell(cs, idx[0], idx[1]))
				}
			}
			ops = append(ops, barrier(pid, int64(f)+1)...)
		}
		progs[pid] = ops
	}
	return progs
}
