package core

import "github.com/csrd-repro/datasync/internal/sim"

// Primitive ops are built once per op per iteration, so their tags are
// sim.Labels rendered only when a trace asks. The rendered text must not
// drift: it feeds the sync traces the engine oracle digests.

// The primitives' tag formats.
var (
	tagGetPC           = sim.RegisterSiteFormat("get_PC i=%d", "get_PC")
	tagSetPC           = sim.RegisterFormat("set_PC(%d) i=%d")
	tagWaitPCNoop      = sim.RegisterFormat("wait_PC(%d,%d) i=%d noop")
	tagWaitPC          = sim.RegisterSiteFormat("wait_PC(%d,%d) i=%d", "wait_PC(%d,%d)")
	tagMarkPC          = sim.RegisterFormat("mark_PC(%d) i=%d")
	tagTransferOwn     = sim.RegisterSiteFormat("transfer_PC:own i=%d", "transfer_PC:own")
	tagTransferRelease = sim.RegisterFormat("transfer_PC:release i=%d")
)

// SimPCs binds a folded set of X process counters to synchronization
// registers of a simulated machine and builds the paper's primitives as
// simulator ops.
type SimPCs struct {
	X    int
	base sim.VarID // PC[k] is register base+k
}

// NewSimPCs declares X process counters on the machine, initialized to
// <slot+1, 0> per the paper.
func NewSimPCs(m *sim.Machine, x int) *SimPCs {
	if x < 1 {
		panic("core: need at least one PC")
	}
	return &SimPCs{X: x, base: m.NewRegVars(x, sim.IndexedNames("PC[%d]"), initialPCValue)}
}

func initialPCValue(k int) int64 { return InitialPC(k).Pack() }

func (s *SimPCs) slot(iter int64) sim.VarID { return s.base + sim.VarID(Fold(iter, s.X)) }

// The primitives append their ops to dst and return the extended slice,
// filling each op in place: a code generator builds every iteration's
// program this way into the buffer the machine recycles.

// GetPC appends the basic get_PC(): busy-wait for ownership of the proper
// PC, i.e. wait_PC(0, 0).
func (s *SimPCs) GetPC(dst []sim.Op, iter int64) []sim.Op {
	return sim.AppendWaitGE(dst, s.slot(iter), PC{Owner: iter, Step: 0}.Pack(), true, sim.Tagf(tagGetPC, iter))
}

// SetPC appends the basic set_PC(step): update the owned PC's step after
// completing a source statement.
func (s *SimPCs) SetPC(dst []sim.Op, iter, step int64) []sim.Op {
	return sim.AppendWriteVar(dst, s.slot(iter), PC{Owner: iter, Step: step}.Pack(), sim.Tagf(tagSetPC, step, iter))
}

// WaitPC appends wait_PC(dist, step): spin until the source process
// iter-dist has completed its step-th source statement. Ownership having
// moved past iter-dist also satisfies the wait (lexicographic order), which
// is sound because ownership transfers only after the owner's last source
// statement. A source before the first iteration does not exist; such a
// wait is emitted as a zero-cycle no-op compute, so every executor of the
// program (the simulator, codegen.RunGoroutines) passes it at once, as
// SplitPCSet.Wait returns at once.
func (s *SimPCs) WaitPC(dst []sim.Op, iter, dist, step int64) []sim.Op {
	src := iter - dist
	if src < 1 {
		return sim.AppendCompute(dst, 0, 0, 0, sim.Tagf(tagWaitPCNoop, dist, step, iter))
	}
	return sim.AppendWaitGE(dst, s.slot(src), PC{Owner: src, Step: step}.Pack(), false, sim.Tagf(tagWaitPC, dist, step, iter))
}

// MarkPC appends the improved mark_PC(step) of Fig 4.3: update the step
// only if this process already owns the PC (ownership has been transferred
// to it); otherwise proceed without waiting — the final transfer_PC will
// publish completion of all source statements at once.
func (s *SimPCs) MarkPC(dst []sim.Op, iter, step int64) []sim.Op {
	want := PC{Owner: iter, Step: step}.Pack()
	owned := PC{Owner: iter, Step: 0}.Pack()
	return sim.AppendWriteVarIfGE(dst, s.slot(iter), want, owned, true, sim.Tagf(tagMarkPC, step, iter))
}

// TransferPCOps appends transfer_PC() to dst: acquire ownership if not yet
// owned, then pass the PC to the next owner. Two ops: a wait and the
// release write.
func (s *SimPCs) TransferPCOps(dst []sim.Op, iter int64) []sim.Op {
	v := s.slot(iter)
	dst = sim.AppendWaitGE(dst, v, PC{Owner: iter, Step: 0}.Pack(), true, sim.Tagf(tagTransferOwn, iter))
	return sim.AppendWriteVar(dst, v, PC{Owner: iter + int64(s.X), Step: 0}.Pack(), sim.Tagf(tagTransferRelease, iter))
}
