package codegen

import (
	"fmt"
	"strings"

	"github.com/csrd-repro/datasync/internal/sim"
)

// This file exposes the synchronization program a scheme emits in an
// analyzable form: a per-iteration sequence of abstract waits, signals and
// statement executions over the scheme's synchronization variables. The
// verify package consumes it to construct the happens-before relation the
// sync ops induce over the whole iteration space — without running the
// machine — and to check it against the nest's dependence set.

// SyncOpKind classifies abstract synchronization-program steps.
type SyncOpKind int

// Abstract step kinds.
const (
	// SyncStmt is the execution point of one body statement: the moment its
	// reads and writes take effect. Stmt is the flattened body position.
	SyncStmt SyncOpKind = iota
	// SyncWait blocks until Var's visible value reaches Value.
	SyncWait
	// SyncSignal publishes Value on Var. Conditional signals (the improved
	// mark_PC) may or may not fire at run time.
	SyncSignal
	// SyncOpaque is an op the translation cannot model statically (an RMW
	// without a protocol-guaranteed post value). Its presence makes
	// verification of waits on its variable inconclusive.
	SyncOpaque
)

func (k SyncOpKind) String() string {
	switch k {
	case SyncStmt:
		return "stmt"
	case SyncWait:
		return "wait"
	case SyncSignal:
		return "signal"
	case SyncOpaque:
		return "opaque"
	}
	return fmt.Sprintf("SyncOpKind(%d)", int(k))
}

// SyncOp is one abstract step of an iteration's synchronization program.
type SyncOp struct {
	Kind        SyncOpKind
	Var         int   // SyncWait / SyncSignal / SyncOpaque
	Value       int64 // wait threshold / signalled value
	Conditional bool  // SyncSignal that may not fire (mark_PC)
	// Guard, valid iff HasGuard, is the visible value a Conditional signal's
	// firing implies ("fires only when visible >= Guard"): the improved
	// mark_PC updates the step only once ownership has arrived.
	Guard    int64
	HasGuard bool
	// Accum marks a SyncSignal produced by an atomic increment (ticketed
	// keys): the variable counts completed accesses, so a wait for value t
	// is released by the t earliest increments collectively, not by any
	// single write reaching t.
	Accum bool
	Stmt  int // SyncStmt: flattened body position
	Tag   string
}

// SyncProgram is a scheme's emitted synchronization program over a
// workload, materializable per iteration.
type SyncProgram struct {
	Workload *Workload
	Scheme   string
	Iters    int64
	VarNames []string
	VarInit  []int64
	// Renamed marks schemes with single-assignment (renamed) data storage:
	// every write creates a fresh version, so anti- and output dependences
	// are vacuous and only flow arcs need enforcement (section 3.1,
	// instance-based).
	Renamed bool
	// At returns iteration iter's abstract step sequence (1-based lpids).
	At func(iter int64) []SyncOp
}

// ExtractSyncProgram instruments the workload under the scheme on a
// throwaway machine and returns the abstract synchronization program. The
// machine is never run; op side effects (statement semantics) never
// execute.
func ExtractSyncProgram(w *Workload, sch Scheme) (*SyncProgram, error) {
	m := sim.New(sim.Config{Processors: 1})
	prog, _, iters, err := instrument(m, w, sch)
	if err != nil {
		return nil, fmt.Errorf("codegen: extract sync program: %w", err)
	}
	sp := &SyncProgram{
		Workload: w,
		Scheme:   sch.Name(),
		Iters:    iters,
		VarNames: make([]string, m.VarCount()),
		VarInit:  make([]int64, m.VarCount()),
	}
	for v := 0; v < m.VarCount(); v++ {
		sp.VarNames[v] = m.VarName(sim.VarID(v))
		sp.VarInit[v] = m.VarValue(sim.VarID(v))
	}
	if rs, ok := sch.(interface{ RenamedStorage() bool }); ok {
		sp.Renamed = rs.RenamedStorage()
	}
	stmtPos := make(map[string]int)
	for i, s := range w.Nest.Stmts() {
		stmtPos[s.Name] = i
	}
	sp.At = func(iter int64) []SyncOp {
		return translateOps(m, prog(nil, iter), stmtPos)
	}
	return sp, nil
}

// translateOps maps one iteration's simulator ops onto abstract steps. The
// execution point of a statement is its last compute op carrying the
// statement's tag (the commit op under a data-write latency). Tags render
// through m, the machine the ops were built for.
func translateOps(m *sim.Machine, ops []sim.Op, stmtPos map[string]int) []SyncOp {
	last := make(map[string]int) // stmt name -> index of its execution op
	for i, op := range ops {
		if op.Kind != sim.OpCompute {
			continue
		}
		name := strings.TrimSuffix(m.Render(op.Tag), ":commit")
		if _, ok := stmtPos[name]; ok {
			last[name] = i
		}
	}
	out := make([]SyncOp, 0, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case sim.OpCompute:
			name := strings.TrimSuffix(m.Render(op.Tag), ":commit")
			if pos, ok := stmtPos[name]; ok && last[name] == i {
				out = append(out, SyncOp{Kind: SyncStmt, Stmt: pos, Tag: name})
			}
		case sim.OpWait:
			out = append(out, SyncOp{Kind: SyncWait, Var: int(op.Var), Value: op.Value, Tag: m.Render(op.Tag)})
		case sim.OpWrite:
			out = append(out, SyncOp{Kind: SyncSignal, Var: int(op.Var), Value: op.Value, Tag: m.Render(op.Tag)})
		case sim.OpWriteIf:
			out = append(out, SyncOp{Kind: SyncSignal, Var: int(op.Var), Value: op.Value,
				Conditional: true, Guard: op.CondGE, HasGuard: true, Tag: m.Render(op.Tag)})
		case sim.OpRMW:
			if op.HasPost {
				out = append(out, SyncOp{Kind: SyncSignal, Var: int(op.Var), Value: op.Post, Accum: true, Tag: m.Render(op.Tag)})
			} else {
				out = append(out, SyncOp{Kind: SyncOpaque, Var: int(op.Var), Tag: m.Render(op.Tag)})
			}
		}
	}
	return out
}
