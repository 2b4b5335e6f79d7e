// Package stmtorient implements the statement-oriented synchronization
// scheme of section 3.2 (Alliant FX/8 Advance/Await over a concurrency
// control bus): one statement counter (SC) per source statement, shared by
// all instances of that statement.
//
// Advance enforces a sequential order on the instances of one source
// statement: after process i executes source Sa it waits until SC[a]==i-1
// and then sets SC[a]=i, so SC[a]=i implies every process j<i has completed
// Sa. A sink checks Await(d, a): SC[a] >= i-d. This "horizontal" sharing is
// the scheme's weakness the paper contrasts with process counters: process
// i's advance waits on ALL earlier processes, so one delayed iteration
// stalls every later one (Example 1 / experiment E3), and a loop whose
// pipeline needs many sync points starves when physical SCs are few
// (experiment E6).
//
// Like the Alliant hardware, SCs here are synchronization registers
// broadcast on the bus (sim.Register) in the simulator, and atomic words at
// runtime. When more logical counters exist than physical SCs, logical
// counter c folds onto SC[c mod K]; the value discipline for shared SCs is
// the caller's contract via explicit sequence numbers.
package stmtorient

import "github.com/csrd-repro/datasync/internal/sim"

// SimSCs is a folded set of K statement counters on a simulated machine.
// Counters start at 0; sequence numbers are 1-based (the paper initializes
// SC to k-1 when the first iteration is k; with 1-based iterations that is 0).
type SimSCs struct {
	K    int
	base sim.VarID // SC[i] is register base+i
}

// The counters' op tag formats.
var (
	tagAdvanceWait = sim.RegisterSiteFormat("advance:wait c=%d seq=%d", "advance:wait c=%d seq=*")
	tagAdvanceSet  = sim.RegisterFormat("advance:set c=%d seq=%d")
	tagAwaitNoop   = sim.RegisterFormat("await:noop")
	tagAwait       = sim.RegisterSiteFormat("await c=%d seq>=%d", "await c=%d seq>=*")
)

// NewSimSCs declares K statement counters on the machine.
func NewSimSCs(m *sim.Machine, k int) *SimSCs {
	if k < 1 {
		panic("stmtorient: need at least one SC")
	}
	return &SimSCs{K: k, base: m.NewRegVars(k, sim.IndexedNames("SC[%d]"), nil)}
}

// Var returns the physical register backing logical counter c.
func (s *SimSCs) Var(c int64) sim.VarID { return s.base + sim.VarID(int(c)%s.K) }

// AdvanceOps appends Advance on logical counter c with the given 1-based
// sequence number to dst: wait until the previous advance committed
// (SC >= seq-1; values never skip, so >= equals ==), then publish seq. Both
// ops are filled in place.
func (s *SimSCs) AdvanceOps(dst []sim.Op, c, seq int64) []sim.Op {
	v := s.Var(c)
	dst = sim.AppendWaitGE(dst, v, seq-1, false, sim.Tagf(tagAdvanceWait, c, seq))
	return sim.AppendWriteVar(dst, v, seq, sim.Tagf(tagAdvanceSet, c, seq))
}

// AwaitOps appends Await to dst: wait until logical counter c has reached
// minSeq. Non-positive minSeq needs no wait and yields a free no-op
// compute.
func (s *SimSCs) AwaitOps(dst []sim.Op, c, minSeq int64) []sim.Op {
	if minSeq <= 0 {
		return sim.AppendCompute(dst, 0, 0, 0, sim.Tagf(tagAwaitNoop))
	}
	return sim.AppendWaitGE(dst, s.Var(c), minSeq, false, sim.Tagf(tagAwait, c, minSeq))
}
