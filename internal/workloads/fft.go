package workloads

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/barrier"
	"github.com/csrd-repro/datasync/internal/sim"
)

// FFT is Example 5: a butterfly-structured transform computed by P
// processors in log2(P) phases, where each phase exchanges data between
// partner pairs only. The paper's point is that no global barrier is
// needed: after BASIC_FFT in stage i a processor marks its own PC and
// waits only for the one processor whose data it will consume next.
//
// The transform computed is the Walsh–Hadamard transform over integers — it
// has exactly the FFT's butterfly dataflow (stage i combines elements whose
// processor ids differ in bit i) without needing complex arithmetic in the
// integer-valued simulator. Each processor owns Chunk elements; buffers are
// per-stage (single assignment across stages), so a stage reads only
// stage-1 data from itself and its stage partner.
type FFT struct {
	P     int   // processors (power of two)
	Chunk int64 // elements per processor
	Cost  int64 // cycles per element per stage
}

// Stages returns log2(P).
func (f FFT) Stages() int { return barrier.Log2(f.P) }

// Setup declares the per-stage value buffers VAL[stage][global element] and
// fills stage 0 with deterministic inputs.
func (f FFT) Setup(mem *sim.Mem) *sim.Grid {
	n := int64(f.P) * f.Chunk
	v := mem.Grid("VAL", 0, int64(f.Stages()), 0, n-1)
	for e := int64(0); e < n; e++ {
		v.Set(0, e, e*e%97+3*e)
	}
	return v
}

// SerialMem computes the transform serially: oracle and baseline cycles.
func (f FFT) SerialMem() (*sim.Mem, int64) {
	mem := sim.NewMem()
	v := f.Setup(mem)
	n := int64(f.P) * f.Chunk
	for s := 1; s <= f.Stages(); s++ {
		dist := int64(1<<(s-1)) * f.Chunk
		for e := int64(0); e < n; e++ {
			partnerE := e ^ dist
			if e < partnerE {
				v.Set(int64(s), e, v.Get(int64(s-1), e)+v.Get(int64(s-1), partnerE))
			} else {
				v.Set(int64(s), e, v.Get(int64(s-1), partnerE)-v.Get(int64(s-1), e))
			}
		}
	}
	return mem, int64(f.Stages()) * n * f.Cost
}

// fftStages is one run's stage computation as a sim.Effect: an op's Arg
// names processor pid's stage s as s*P+pid.
type fftStages struct {
	f  FFT
	v  *sim.Grid
	id sim.EffID // its name on the run's machine
}

// Apply implements sim.Effect.
func (st *fftStages) Apply(arg int64) {
	f, v := st.f, st.v
	stage, pid := arg/int64(f.P), arg%int64(f.P)
	lo := pid * f.Chunk
	dist := int64(1<<(stage-1)) * f.Chunk
	for e := lo; e < lo+f.Chunk; e++ {
		partnerE := e ^ dist
		if e < partnerE {
			v.Set(stage, e, v.Get(stage-1, e)+v.Get(stage-1, partnerE))
		} else {
			v.Set(stage, e, v.Get(stage-1, partnerE)-v.Get(stage-1, e))
		}
	}
}

// setup declares the run's buffers and returns its stage effect,
// registered on m.
func (f FFT) setup(m *sim.Machine) *fftStages {
	st := &fftStages{f: f, v: f.Setup(m.Mem())}
	st.id = m.AddEffect(st)
	return st
}

// tagStage tags processor p's stage s.
var tagStage = sim.RegisterFormat("fft p%d s%d")

// stageOp builds processor pid's compute for one stage.
func (f FFT) stageOp(st *fftStages, pid, stage int) sim.Op {
	return sim.Compute(f.Chunk*f.Cost, st.id, int64(stage*f.P+pid), sim.Tagf(tagStage, int64(pid), int64(stage)))
}

// Pairwise builds the paper's fft() procedure: per stage, BASIC_FFT, then
// mark_PC(i), then spin on the *next* stage's partner — the processor whose
// stage-i output this processor consumes in stage i+1. One PC per
// processor, step = completed stage, no folding (process == processor).
func (f FFT) Pairwise(m *sim.Machine) [][]sim.Op {
	st := f.setup(m)
	pcs := make([]sim.VarID, f.P)
	for pid := 0; pid < f.P; pid++ {
		pcs[pid] = m.NewRegVar(fmt.Sprintf("fftPC[%d]", pid), 0)
	}
	stages := f.Stages()
	progs := make([][]sim.Op, f.P)
	for pid := 0; pid < f.P; pid++ {
		var ops []sim.Op
		for s := 1; s <= stages; s++ {
			ops = append(ops, f.stageOp(st, pid, s))
			ops = append(ops, sim.WriteVar(pcs[pid], int64(s), m.Text(fmt.Sprintf("fft:mark p%d s%d", pid, s))))
			if s < stages {
				next := pid ^ (1 << s) // stage s+1 partner (distance 2^s)
				ops = append(ops, sim.WaitGE(pcs[next], int64(s), m.Text(fmt.Sprintf("fft:wait p%d s%d", pid, s))))
			}
		}
		progs[pid] = ops
	}
	return progs
}

// WithBarrier builds the conventional alternative: a full barrier between
// stages (as in the paper's reference [7]).
func (f FFT) WithBarrier(m *sim.Machine, b BarrierOps) [][]sim.Op {
	st := f.setup(m)
	stages := f.Stages()
	progs := make([][]sim.Op, f.P)
	for pid := 0; pid < f.P; pid++ {
		var ops []sim.Op
		for s := 1; s <= stages; s++ {
			ops = append(ops, f.stageOp(st, pid, s))
			if s < stages {
				ops = append(ops, b(pid, int64(s))...)
			}
		}
		progs[pid] = ops
	}
	return progs
}
