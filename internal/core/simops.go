package core

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/sim"
)

// Primitive ops are built once per op per iteration, so their tags are
// sim.Labels rendered only when a trace asks. The rendered text must not
// drift: it feeds the sync traces the engine oracle digests.

// SimPCs binds a folded set of X process counters to synchronization
// registers of a simulated machine and builds the paper's primitives as
// simulator ops.
type SimPCs struct {
	X    int
	vars []sim.VarID
}

// NewSimPCs declares X process counters on the machine, initialized to
// <slot+1, 0> per the paper.
func NewSimPCs(m *sim.Machine, x int) *SimPCs {
	if x < 1 {
		panic("core: need at least one PC")
	}
	s := &SimPCs{X: x, vars: make([]sim.VarID, x)}
	for k := 0; k < x; k++ {
		s.vars[k] = m.NewRegVar(fmt.Sprintf("PC[%d]", k), InitialPC(k).Pack())
	}
	return s
}

// Vars exposes the underlying register ids (for direct inspection in tests).
func (s *SimPCs) Vars() []sim.VarID { return s.vars }

func (s *SimPCs) slot(iter int64) sim.VarID { return s.vars[Fold(iter, s.X)] }

// GetPC is the basic get_PC(): busy-wait for ownership of the proper PC,
// i.e. wait_PC(0, 0).
func (s *SimPCs) GetPC(iter int64) sim.Op {
	op := sim.WaitGE(s.slot(iter), PC{Owner: iter, Step: 0}.Pack(), "")
	op.Tag = sim.Tagf("get_PC i=%d", iter)
	return op
}

// SetPC is the basic set_PC(step): update the owned PC's step after
// completing a source statement.
func (s *SimPCs) SetPC(iter, step int64) sim.Op {
	op := sim.WriteVar(s.slot(iter), PC{Owner: iter, Step: step}.Pack(), "")
	op.Tag = sim.Tagf("set_PC(%d) i=%d", step, iter)
	return op
}

// ReleasePC is the basic release_PC(): pass the PC to process iter+X.
func (s *SimPCs) ReleasePC(iter int64) sim.Op {
	op := sim.WriteVar(s.slot(iter), PC{Owner: iter + int64(s.X), Step: 0}.Pack(), "")
	op.Tag = sim.Tagf("release_PC i=%d", iter)
	return op
}

// WaitPC is wait_PC(dist, step): spin until the source process iter-dist
// has completed its step-th source statement. Ownership having moved past
// iter-dist also satisfies the wait (lexicographic order), which is sound
// because ownership transfers only after the owner's last source statement.
// A source before the first iteration does not exist; such waits are
// satisfied immediately (a zero-cycle no-op), mirroring PCSet.Wait.
func (s *SimPCs) WaitPC(iter, dist, step int64) sim.Op {
	src := iter - dist
	if src < 1 {
		op := sim.Compute(0, nil, "")
		op.Tag = sim.Tagf("wait_PC(%d,%d) i=%d noop", dist, step, iter)
		return op
	}
	op := sim.WaitGE(s.slot(src), PC{Owner: src, Step: step}.Pack(), "")
	op.Tag = sim.Tagf("wait_PC(%d,%d) i=%d", dist, step, iter)
	return op
}

// MarkPC is the improved mark_PC(step) of Fig 4.3: update the step only if
// this process already owns the PC (ownership has been transferred to it);
// otherwise proceed without waiting — the final transfer_PC will publish
// completion of all source statements at once.
func (s *SimPCs) MarkPC(iter, step int64) sim.Op {
	want := PC{Owner: iter, Step: step}.Pack()
	owned := PC{Owner: iter, Step: 0}.Pack()
	op := sim.WriteVarIfGE(s.slot(iter), want, owned, "")
	op.Tag = sim.Tagf("mark_PC(%d) i=%d", step, iter)
	return op
}

// TransferPCOps is transfer_PC(): acquire ownership if not yet owned, then
// pass the PC to the next owner. Two ops: a wait and the release write.
func (s *SimPCs) TransferPCOps(iter int64) []sim.Op {
	own := sim.WaitGE(s.slot(iter), PC{Owner: iter, Step: 0}.Pack(), "")
	own.Tag = sim.Tagf("transfer_PC:own i=%d", iter)
	release := sim.WriteVar(s.slot(iter), PC{Owner: iter + int64(s.X), Step: 0}.Pack(), "")
	release.Tag = sim.Tagf("transfer_PC:release i=%d", iter)
	return []sim.Op{own, release}
}
