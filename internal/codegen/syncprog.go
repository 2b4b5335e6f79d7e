package codegen

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/sim"
)

// SyncProgram is a scheme's emitted program over a workload, for analysis
// rather than execution: the verify package reads its per-iteration ops to
// construct the happens-before relation the sync ops induce over the whole
// iteration space, without running the machine, and checks it against the
// nest's dependence set.
type SyncProgram struct {
	Workload *Workload
	Scheme   string
	Iters    int64
	// Renamed marks schemes with single-assignment (renamed) data storage:
	// every write creates a fresh version, so anti- and output dependences
	// are vacuous and only flow arcs need enforcement (section 3.1,
	// instance-based).
	Renamed bool
	// Machine is the machine the program was instrumented on and never
	// run: its name table renders the ops' tags, and it declares the
	// variables (VarCount, VarName) with their initial values (VarValue).
	Machine *sim.Machine
	// At is the scheme's program, not safe for concurrent use. A compute
	// op whose Stmt is set is the execution point of that statement: the
	// moment its reads and writes take effect.
	At sim.Program
}

// AppendTag appends the text of op's tag to dst: the statement's name for
// a statement's op, the rendered label otherwise. Tags are rendered only
// when a report needs one, never while materializing.
func (sp *SyncProgram) AppendTag(dst []byte, op sim.Op) []byte {
	if op.Stmt != 0 {
		return append(dst, sp.Workload.Nest.Stmts()[op.Stmt-1].Name...)
	}
	return sp.Machine.AppendRender(dst, op.Tag)
}

// ExtractSyncProgram instruments the workload under the scheme on a
// throwaway machine and returns the program it emits. The machine is never
// run; op side effects (statement semantics) never execute.
func ExtractSyncProgram(w *Workload, sch Scheme) (*SyncProgram, error) {
	m := sim.New(sim.Config{Processors: 1})
	prog, _, iters, err := instrument(m, w, sch)
	if err != nil {
		return nil, fmt.Errorf("codegen: extract sync program: %w", err)
	}
	sp := &SyncProgram{Workload: w, Scheme: sch.Name(), Iters: iters, Machine: m, At: prog}
	if rs, ok := sch.(interface{ RenamedStorage() bool }); ok {
		sp.Renamed = rs.RenamedStorage()
	}
	return sp, nil
}
