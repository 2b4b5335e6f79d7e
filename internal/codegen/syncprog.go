package codegen

import (
	"bytes"
	"fmt"

	"github.com/csrd-repro/datasync/internal/sim"
)

// This file exposes the synchronization program a scheme emits in an
// analyzable form: a per-iteration sequence of abstract waits, signals and
// statement executions over the scheme's synchronization variables. The
// verify package consumes it to construct the happens-before relation the
// sync ops induce over the whole iteration space — without running the
// machine — and to check it against the nest's dependence set.

// SyncOpKind classifies abstract synchronization-program steps.
type SyncOpKind uint8

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
	Conditional bool // SyncSignal that may not fire (mark_PC)
	// HasGuard marks a Conditional signal whose firing implies a visible
	// value of at least Guard ("fires only when visible >= Guard"): the
	// improved mark_PC updates the step only once ownership has arrived.
	HasGuard bool
	// Accum marks a SyncSignal produced by an atomic increment (ticketed
	// keys): the variable counts completed accesses, so a wait for value t
	// is released by the t earliest increments collectively, not by any
	// single write reaching t.
	Accum bool
	Var   sim.VarID // SyncWait / SyncSignal / SyncOpaque
	Stmt  int32     // SyncStmt: flattened body position
	Value int64     // wait threshold / signalled value
	Guard int64     // valid iff HasGuard
	// Tag is the label of the simulator op the step stands for; a SyncStmt
	// step has none. SyncProgram.AppendTag renders it.
	Tag sim.Label
}

// SyncProgram is a scheme's emitted synchronization program over a
// workload, materializable per iteration.
type SyncProgram struct {
	Workload *Workload
	Scheme   string
	Iters    int64
	VarInit  []int64
	// Renamed marks schemes with single-assignment (renamed) data storage:
	// every write creates a fresh version, so anti- and output dependences
	// are vacuous and only flow arcs need enforcement (section 3.1,
	// instance-based).
	Renamed bool
	// Machine is the machine the program was instrumented on: its name
	// table renders the steps' tags, and it declares the variables
	// (VarCount, VarName).
	Machine *sim.Machine
	// At appends iteration iter's abstract step sequence (1-based lpids)
	// to dst and returns the extended slice. It reuses buffers of its own
	// from call to call, so it is not safe for concurrent use.
	At func(dst []SyncOp, iter int64) []SyncOp
}

// AppendTag appends the text of op's tag to dst: the statement's name for
// a SyncStmt step, the rendered label otherwise. Tags are rendered only
// when a report needs one, never while materializing.
func (sp *SyncProgram) AppendTag(dst []byte, op SyncOp) []byte {
	if op.Kind == SyncStmt {
		return append(dst, sp.Workload.Nest.Stmts()[op.Stmt].Name...)
	}
	return sp.Machine.AppendRender(dst, op.Tag)
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
		VarInit:  make([]int64, m.VarCount()),
		Machine:  m,
	}
	for v := 0; v < m.VarCount(); v++ {
		sp.VarInit[v] = m.VarValue(sim.VarID(v))
	}
	if rs, ok := sch.(interface{ RenamedStorage() bool }); ok {
		sp.Renamed = rs.RenamedStorage()
	}
	stmts := w.Nest.Stmts()
	t := &translator{m: m, stmtPos: make(map[string]int, len(stmts)), lastAt: make([]int, len(stmts))}
	for i, s := range stmts {
		t.stmtPos[s.Name] = i
	}
	sp.At = func(dst []SyncOp, iter int64) []SyncOp {
		t.ops = prog(t.ops[:0], iter)
		return t.translate(dst)
	}
	return sp, nil
}

// translator maps one iteration's simulator ops onto abstract steps. It
// keeps the op buffer and what it learned of statement tags from one
// iteration to the next.
type translator struct {
	m       *sim.Machine
	stmtPos map[string]int // statement name -> flattened body position
	ops     []sim.Op
	// verbatim and commit hold, by string id, what a label rendering that
	// string verbatim or as "<string>:commit" names: 0 not looked up yet,
	// 1 no statement, otherwise the statement's position + 2.
	verbatim, commit []int32
	// lastAt[pos] is the index of statement pos's last compute op in the
	// iteration being translated.
	lastAt []int
	buf    []byte
}

// translate appends the abstract steps of t.ops to dst. The execution
// point of a statement is its last compute op carrying the statement's
// tag (the commit op under a data-write latency).
func (t *translator) translate(dst []SyncOp) []SyncOp {
	for i, op := range t.ops {
		if op.Kind == sim.OpCompute {
			if pos := t.stmt(op.Tag); pos >= 0 {
				t.lastAt[pos] = i
			}
		}
	}
	for i, op := range t.ops {
		switch op.Kind {
		case sim.OpCompute:
			if pos := t.stmt(op.Tag); pos >= 0 && t.lastAt[pos] == i {
				dst = append(dst, SyncOp{Kind: SyncStmt, Stmt: int32(pos)})
			}
		case sim.OpWait:
			dst = append(dst, SyncOp{Kind: SyncWait, Var: op.Var, Value: op.Value, Tag: op.Tag})
		case sim.OpWrite:
			dst = append(dst, SyncOp{Kind: SyncSignal, Var: op.Var, Value: op.Value, Tag: op.Tag})
		case sim.OpWriteIf:
			dst = append(dst, SyncOp{Kind: SyncSignal, Var: op.Var, Value: op.Value,
				Conditional: true, Guard: op.CondGE, HasGuard: true, Tag: op.Tag})
		case sim.OpRMW:
			if op.HasPost {
				dst = append(dst, SyncOp{Kind: SyncSignal, Var: op.Var, Value: op.Post, Accum: true, Tag: op.Tag})
			} else {
				dst = append(dst, SyncOp{Kind: SyncOpaque, Var: op.Var, Tag: op.Tag})
			}
		}
	}
	return dst
}

// stmt returns the body position of the statement a compute op's tag
// names, -1 for none: the tag with a ":commit" suffix trimmed must be the
// statement's name. Statement ops render a name of the machine's name
// table verbatim or as its commit phase, so those two formats are looked
// up once per string; any other tag is rendered and looked up.
func (t *translator) stmt(l sim.Label) int {
	var memo *[]int32
	switch l.Format() {
	case sim.Verbatim:
		memo = &t.verbatim
	case tagCommit:
		memo = &t.commit
	default:
		return t.lookup(l)
	}
	s := int(l.Str())
	if s >= len(*memo) {
		*memo = append(*memo, make([]int32, s+1-len(*memo))...)
	}
	if (*memo)[s] == 0 {
		(*memo)[s] = int32(t.lookup(l) + 2)
	}
	return int((*memo)[s]) - 2
}

// lookup renders l and returns the position of the statement it names.
func (t *translator) lookup(l sim.Label) int {
	t.buf = t.m.AppendRender(t.buf[:0], l)
	if pos, ok := t.stmtPos[string(bytes.TrimSuffix(t.buf, commitSuffix))]; ok {
		return pos
	}
	return -1
}

var commitSuffix = []byte(":commit")
