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

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"github.com/csrd-repro/datasync/internal/sim"
)

// SimSCs is a folded set of K statement counters on a simulated machine.
// Counters start at 0; sequence numbers are 1-based (the paper initializes
// SC to k-1 when the first iteration is k; with 1-based iterations that is 0).
type SimSCs struct {
	K    int
	vars []sim.VarID
}

// NewSimSCs declares K statement counters on the machine.
func NewSimSCs(m *sim.Machine, k int) *SimSCs {
	if k < 1 {
		panic("stmtorient: need at least one SC")
	}
	s := &SimSCs{K: k, vars: make([]sim.VarID, k)}
	for i := 0; i < k; i++ {
		s.vars[i] = m.NewRegVar(fmt.Sprintf("SC[%d]", i), 0)
	}
	return s
}

// Var returns the physical register backing logical counter c.
func (s *SimSCs) Var(c int64) sim.VarID { return s.vars[int(c)%s.K] }

// AdvanceOps is Advance on logical counter c with the given 1-based
// sequence number: wait until the previous advance committed (SC >= seq-1;
// values never skip, so >= equals ==), then publish seq.
func (s *SimSCs) AdvanceOps(c, seq int64) []sim.Op {
	v := s.Var(c)
	wait := sim.WaitGE(v, seq-1, "")
	wait.Tag = sim.Tagf("advance:wait c=%d seq=%d", c, seq)
	set := sim.WriteVar(v, seq, "")
	set.Tag = sim.Tagf("advance:set c=%d seq=%d", c, seq)
	return []sim.Op{wait, set}
}

// AwaitOp is Await: wait until logical counter c has reached minSeq.
// Non-positive minSeq needs no wait and yields a free no-op compute.
func (s *SimSCs) AwaitOp(c, minSeq int64) sim.Op {
	if minSeq <= 0 {
		return sim.Compute(0, nil, "await:noop")
	}
	op := sim.WaitGE(s.Var(c), minSeq, "")
	op.Tag = sim.Tagf("await c=%d seq>=%d", c, minSeq)
	return op
}

// SCSet is the runtime (goroutine) statement-counter set.
type SCSet struct {
	k   int
	scs []atomic.Int64
}

// NewSCSet builds K runtime statement counters initialized to 0.
func NewSCSet(k int) *SCSet {
	if k < 1 {
		panic("stmtorient: need at least one SC")
	}
	return &SCSet{k: k, scs: make([]atomic.Int64, k)}
}

// K returns the number of physical counters.
func (s *SCSet) K() int { return s.k }

// Load returns the current value of the physical counter backing c.
func (s *SCSet) Load(c int64) int64 { return s.scs[int(c)%s.k].Load() }

// Advance publishes sequence number seq on logical counter c after its
// predecessor (seq-1) has been published.
func (s *SCSet) Advance(c, seq int64) {
	v := &s.scs[int(c)%s.k]
	for v.Load() < seq-1 {
		runtime.Gosched()
	}
	v.Store(seq)
}

// Await spins until logical counter c reaches minSeq (immediately true for
// non-positive minSeq).
func (s *SCSet) Await(c, minSeq int64) {
	if minSeq <= 0 {
		return
	}
	v := &s.scs[int(c)%s.k]
	for v.Load() < minSeq {
		runtime.Gosched()
	}
}
