package exper

import (
	"fmt"
	"testing"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/sim"
)

// wantOp is one expected op of a generated process-oriented program: its
// kind and, for a synchronization op, the process counter it names (the
// slot of process slotOf), the <owner,step> value it waits for or writes,
// and whether it is an ownership check. A compute op is a statement
// execution of the program's own iteration.
type wantOp struct {
	kind                sim.OpKind
	slotOf, owner, step int64
	own                 bool
}

func stmtOp() wantOp { return wantOp{kind: sim.OpCompute} }

// pcOp expects an op of kind on the counter of process slotOf with value
// <owner,step>.
func pcOp(kind sim.OpKind, slotOf, owner, step int64, own bool) wantOp {
	return wantOp{kind: kind, slotOf: slotOf, owner: owner, step: step, own: own}
}

// unpack decodes a packed PC for a failure message.
func unpack(v int64) core.PC {
	return core.PC{Owner: v >> core.StepBits, Step: v & core.MaxStep}
}

// checkProgram compares a generated program of iteration iter over x
// folded counters with the expected op sequence, on kinds, variables and
// values: no rendered tag is read.
func checkProgram(t *testing.T, m *sim.Machine, ops []sim.Op, iter int64, x int, want []wantOp) {
	t.Helper()
	if len(ops) != len(want) {
		t.Fatalf("iteration %d: %d ops, want %d", iter, len(ops), len(want))
	}
	for i, w := range want {
		op, at := ops[i], fmt.Sprintf("iteration %d op %d", iter, i+1)
		if op.Kind != w.kind {
			t.Errorf("%s: kind %d, want %d", at, op.Kind, w.kind)
			continue
		}
		if w.kind == sim.OpCompute {
			if op.Eff == 0 || op.Arg != iter || op.Cycles <= 0 {
				t.Errorf("%s: compute %+v is not a statement execution of iteration %d", at, op, iter)
			}
			continue
		}
		if got, want := m.VarName(op.Var), fmt.Sprintf("PC[%d]", core.Fold(w.slotOf, x)); got != want {
			t.Errorf("%s: on %s, want %s", at, got, want)
		}
		if got, want := op.Value, (core.PC{Owner: w.owner, Step: w.step}); got != want.Pack() {
			t.Errorf("%s: value %v, want %v", at, unpack(got), want)
		}
		if op.OwnCheck != w.own {
			t.Errorf("%s: ownership check %v, want %v", at, op.OwnCheck, w.own)
		}
		if op.Kind == sim.OpWriteIf && op.CondGE != (core.PC{Owner: iter}).Pack() {
			t.Errorf("%s: guard %v, want ownership <%d,0>", at, unpack(op.CondGE), iter)
		}
	}
}

// TestE4ProgramIsFig42b checks E4's two claims on the ops themselves:
// interior iteration 10 of the Fig 2.1 loop under the basic primitives is
// Fig 4.2b's sequence, and the improved process-oriented scheme runs the
// loop in the fewest cycles of all five schemes, with a footprint of X
// counters, below both data-oriented schemes' per-element variables.
func TestE4ProgramIsFig42b(t *testing.T) {
	const iter, x = 10, 4
	m, ops, err := fig42bProgram(96, 4)
	if err != nil {
		t.Fatal(err)
	}
	wait, write := sim.OpWait, sim.OpWrite
	checkProgram(t, m, ops, iter, x, []wantOp{
		stmtOp(),                             // S1
		pcOp(wait, iter, iter, 0, true),      // get_PC
		pcOp(write, iter, iter, 1, false),    // set_PC(1)
		pcOp(wait, iter-2, iter-2, 1, false), // wait_PC(2,1)
		stmtOp(),                             // S2
		pcOp(write, iter, iter, 2, false),    // set_PC(2)
		pcOp(wait, iter-1, iter-1, 1, false), // wait_PC(1,1)
		stmtOp(),                             // S3
		pcOp(write, iter, iter, 3, false),    // set_PC(3)
		pcOp(wait, iter-1, iter-1, 2, false), // wait_PC(1,2)
		pcOp(wait, iter-2, iter-2, 3, false), // wait_PC(2,3)
		stmtOp(),                             // S4
		pcOp(wait, iter, iter, 0, true),      // transfer_PC: own
		pcOp(write, iter, iter+x, 0, false),  // transfer_PC: release
		pcOp(wait, iter-1, iter-1, 4, false), // wait_PC(1,4)
		stmtOp(),                             // S5
	})

	tables, err := E4SchemeComparison()
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		scheme       string
		vars, cycles int
	}
	var rows []row
	for _, r := range tables[0].Rows {
		var rw row
		rw.scheme = r[0]
		if _, err := fmt.Sscan(r[1], &rw.vars); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Sscan(r[4], &rw.cycles); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rw)
	}
	improved := rows[0]
	if improved.scheme != "process(X=8,improved)" || improved.vars != 8 {
		t.Fatalf("first E4.1 row %+v, want process(X=8,improved) with 8 counters", improved)
	}
	for _, r := range rows[1:] {
		if r.cycles <= improved.cycles {
			t.Errorf("%s runs in %d cycles, the improved process counters in %d: want the fewest for the latter",
				r.scheme, r.cycles, improved.cycles)
		}
		if r.scheme[:4] == "data" && r.vars <= improved.vars {
			t.Errorf("%s uses %d sync vars, not more than the improved process counters' %d", r.scheme, r.vars, improved.vars)
		}
	}
}

// TestE8ProgramsFig53 checks E8's claim on the ops themselves: with
// sources in both arms of a branch, the arm that runs also publishes the
// skipped arm's step (iteration 11 takes THEN and marks steps 2 and 3
// after S2), and the ELSE path publishes the THEN step early (iteration 12
// marks step 2 before S3, then step 3 after it).
func TestE8ProgramsFig53(t *testing.T) {
	const x = 4
	m, odd, even, err := fig53Programs(60, 4)
	if err != nil {
		t.Fatal(err)
	}
	wait, write, mark := sim.OpWait, sim.OpWrite, sim.OpWriteIf
	tail := func(iter int64) []wantOp {
		return []wantOp{
			pcOp(wait, iter-2, iter-2, 2, false), // wait_PC(2,2)
			pcOp(wait, iter-2, iter-2, 3, false), // wait_PC(2,3)
			stmtOp(),                             // S4
			pcOp(wait, iter, iter, 0, true),      // transfer_PC: own
			pcOp(write, iter, iter+x, 0, false),  // transfer_PC: release
		}
	}
	checkProgram(t, m, odd, 11, x, append([]wantOp{
		stmtOp(),                     // S1
		pcOp(mark, 11, 11, 1, true),  // mark_PC(1)
		pcOp(wait, 10, 10, 1, false), // wait_PC(1,1)
		stmtOp(),                     // S2, the THEN arm
		pcOp(mark, 11, 11, 2, true),  // mark_PC(2): the arm's own step
		pcOp(mark, 11, 11, 3, true),  // mark_PC(3): covers the skipped ELSE arm
	}, tail(11)...))
	checkProgram(t, m, even, 12, x, append([]wantOp{
		stmtOp(),                     // S1
		pcOp(mark, 12, 12, 1, true),  // mark_PC(1)
		pcOp(mark, 12, 12, 2, true),  // mark_PC(2): the THEN step, early
		pcOp(wait, 11, 11, 1, false), // wait_PC(1,1)
		stmtOp(),                     // S3, the ELSE arm
		pcOp(mark, 12, 12, 3, true),  // mark_PC(3)
	}, tail(12)...))
	if len(odd) != 11 || len(even) != 11 {
		return
	}
	// The two iterations share S1 and S4 and differ in the arm they run.
	if odd[0].Eff != even[0].Eff || odd[8].Eff != even[8].Eff {
		t.Error("iterations 11 and 12 do not run the same S1 and S4")
	}
	if odd[3].Eff == even[4].Eff {
		t.Error("iterations 11 and 12 run the same statement in the branch")
	}
}
