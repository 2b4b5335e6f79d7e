package codegen_test

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/spin"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// goroutineSchemes returns a fresh instance of each of the six schemes the
// goroutine executor is checked under: allSchemes plus one folded
// statement counter.
func goroutineSchemes(x int) []codegen.Scheme {
	return append(allSchemes(x), codegen.StatementOriented{K: 1})
}

// TestRunGoroutines is the goroutine executor's matrix: every built-in
// workload under the six schemes at P = 1, 3 and 8, plus the outer
// pipeline at G = 1 and 2 on the depth-2 workloads. Each run must match
// the serial memory image.
func TestRunGoroutines(t *testing.T) {
	builtins := []struct {
		name  string
		build func() *codegen.Workload
	}{
		{"fig21", func() *codegen.Workload { return workloads.Fig21(60, 4) }},
		{"nested", func() *codegen.Workload { return workloads.Nested(9, 7, 4) }},
		{"branchy", func() *codegen.Workload { return workloads.Branchy(60, 4) }},
		{"recurrence", func() *codegen.Workload { return workloads.Recurrence(60, 2, 4) }},
		{"stencil", func() *codegen.Workload { return workloads.Stencil(9, 4) }},
	}
	for _, b := range builtins {
		for _, p := range []int{1, 3, 8} {
			schemes := goroutineSchemes(4)
			if b.build().Nest.Depth() == 2 {
				schemes = append(schemes, codegen.PipelinedOuter{X: 4, G: 1}, codegen.PipelinedOuter{X: 4, G: 2})
			}
			for _, sch := range schemes {
				if _, err := codegen.RunGoroutines(b.build(), sch, p); err != nil {
					t.Errorf("%s %s P=%d: %v", b.name, sch.Name(), p, err)
				}
			}
		}
	}
}

// TestRunRuntimeFig21 runs the canonical loop at several counter and
// worker counts.
func TestRunRuntimeFig21(t *testing.T) {
	for _, c := range []struct{ x, procs int }{{1, 2}, {4, 4}, {8, 3}} {
		if _, err := codegen.RunGoroutines(workloads.Fig21(300, 1), codegen.ProcessOriented{X: c.x, Improved: true}, c.procs); err != nil {
			t.Errorf("X=%d procs=%d: %v", c.x, c.procs, err)
		}
	}
}

// TestRunRuntimeNested runs the coalesced Example 2 nest on goroutines.
func TestRunRuntimeNested(t *testing.T) {
	if _, err := codegen.RunGoroutines(workloads.Nested(20, 15, 1), codegen.ProcessOriented{X: 8, Improved: true}, 4); err != nil {
		t.Fatal(err)
	}
}

// TestRunRuntimeBranchy runs the Example 3 loop on goroutines: covering
// marks must keep every path live under real concurrency.
func TestRunRuntimeBranchy(t *testing.T) {
	for _, improved := range []bool{true, false} {
		if _, err := codegen.RunGoroutines(workloads.Branchy(200, 1), codegen.ProcessOriented{X: 4, Improved: improved}, 4); err != nil {
			t.Errorf("improved=%v: %v", improved, err)
		}
	}
}

// TestRunRuntimeRandom: random loops under the process-oriented scheme at
// random counter and worker counts, exact serial equivalence.
func TestRunRuntimeRandom(t *testing.T) {
	trials := 15
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < trials; trial++ {
		n := int64(30 + rng.Intn(80))
		nStmts := 1 + rng.Intn(5)
		x := 1 + rng.Intn(8)
		procs := 1 + rng.Intn(6)
		seed := rng.Int63()
		w := workloads.Random(rand.New(rand.NewSource(seed)), n, nStmts)
		if _, err := codegen.RunGoroutines(w, codegen.ProcessOriented{X: x, Improved: true}, procs); err != nil {
			t.Fatalf("trial %d (seed %d n=%d stmts=%d X=%d procs=%d): %v",
				trial, seed, n, nStmts, x, procs, err)
		}
	}
}

// TestRunRuntimePipelinedStencil: Example 1's pipeline on goroutines.
func TestRunRuntimePipelinedStencil(t *testing.T) {
	for _, g := range []int64{1, 4} {
		if _, err := codegen.RunGoroutines(workloads.Stencil(30, 1), codegen.PipelinedOuter{X: 8, G: g}, 4); err != nil {
			t.Errorf("G=%d: %v", g, err)
		}
	}
}

// TestRunRuntimePipelinedNested: outer pipelining of Example 2's nest.
func TestRunRuntimePipelinedNested(t *testing.T) {
	if _, err := codegen.RunGoroutines(workloads.Nested(25, 20, 1), codegen.PipelinedOuter{X: 4, G: 2}, 4); err != nil {
		t.Fatal(err)
	}
}

// TestRunRuntimePipelinedRejectsDepth1 propagates shape errors.
func TestRunRuntimePipelinedRejectsDepth1(t *testing.T) {
	if _, err := codegen.RunGoroutines(workloads.Fig21(10, 1), codegen.PipelinedOuter{X: 2, G: 1}, 2); err == nil {
		t.Error("depth-1 workload accepted")
	}
}

// TestUnknownDistanceRejected: a loop with a non-constant dependence
// distance cannot be instrumented by the constant-distance schemes.
func TestUnknownDistanceRejected(t *testing.T) {
	w := workloads.Fig21(10, 1)
	// Corrupt S5 to read A[1] (constant subscript) so the write A[I]
	// creates an unknown-distance dependence.
	s5 := w.Nest.Stmts()[4]
	s5.Reads[0].Index[0] = expr.Const(1, 1)
	for _, sch := range []codegen.Scheme{
		codegen.ProcessOriented{X: 2, Improved: true},
		codegen.StatementOriented{},
	} {
		if _, err := codegen.Run(w, sch, cfg(2)); err == nil ||
			!strings.Contains(err.Error(), "constant distance") {
			t.Errorf("%s: err = %v, want constant-distance rejection", sch.Name(), err)
		}
		if _, err := codegen.RunGoroutines(w, sch, 2); err == nil ||
			!strings.Contains(err.Error(), "constant distance") {
			t.Errorf("%s on goroutines: err = %v, want constant-distance rejection", sch.Name(), err)
		}
	}
}

// TestRunRuntimeReturnsMemory: the returned memory holds the results, the
// renamed storage of the instance-based scheme folded back in.
func TestRunRuntimeReturnsMemory(t *testing.T) {
	for _, sch := range []codegen.Scheme{codegen.ProcessOriented{X: 4, Improved: true}, codegen.NewInstanceBased()} {
		mem, err := codegen.RunGoroutines(workloads.Fig21(50, 1), sch, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := mem.Lookup("OUT")
		if out == nil {
			t.Fatal("OUT array missing")
		}
		// OUT[1] = A[0] initial = 1000+0.
		if got := out.Get(1); got != 1000 {
			t.Errorf("%s: OUT[1] = %d, want 1000", sch.Name(), got)
		}
	}
}

// TestRunRuntimeStatementMatrix: the statement-oriented scheme across
// workloads and counter budgets.
func TestRunRuntimeStatementMatrix(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		if _, err := codegen.RunGoroutines(workloads.Fig21(200, 1), codegen.StatementOriented{K: k}, 4); err != nil {
			t.Errorf("fig21 K=%d: %v", k, err)
		}
		if _, err := codegen.RunGoroutines(workloads.Branchy(120, 1), codegen.StatementOriented{K: k}, 3); err != nil {
			t.Errorf("branchy K=%d: %v", k, err)
		}
	}
	if _, err := codegen.RunGoroutines(workloads.Nested(15, 12, 1), codegen.StatementOriented{}, 4); err != nil {
		t.Errorf("nested: %v", err)
	}
}

// TestRunRuntimeRefBasedMatrix: the key protocol across workloads.
func TestRunRuntimeRefBasedMatrix(t *testing.T) {
	for _, w := range []*codegen.Workload{
		workloads.Fig21(150, 1),
		workloads.Branchy(100, 1),
		workloads.Nested(12, 10, 1),
		workloads.SelfRMW(80, 1),
	} {
		if _, err := codegen.RunGoroutines(w, codegen.RefBased{}, 4); err != nil {
			t.Error(err)
		}
	}
}

// TestAllRuntimeExecutorsRandom: the six schemes over random loops.
func TestAllRuntimeExecutorsRandom(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < trials; trial++ {
		n := int64(30 + rng.Intn(60))
		nStmts := 1 + rng.Intn(4)
		procs := 1 + rng.Intn(5)
		seed := rng.Int63()
		for _, sch := range goroutineSchemes(4) {
			w := workloads.Random(rand.New(rand.NewSource(seed)), n, nStmts)
			if _, err := codegen.RunGoroutines(w, sch, procs); err != nil {
				t.Fatalf("trial %d (seed %d) %s: %v", trial, seed, sch.Name(), err)
			}
		}
	}
}

// without wraps a scheme and drops every op of one kind from its
// programs. Without the waits, iteration 1 is also held back until the
// last iteration has run, so the missing order shows on every schedule.
type without struct {
	codegen.Scheme
	kind sim.OpKind
}

func (s without) Instrument(m *sim.Machine, w *codegen.Workload) (sim.Program, codegen.Footprint, error) {
	prog, foot, err := s.Scheme.Instrument(m, w)
	if err != nil {
		return nil, foot, err
	}
	hold := m.NewRegVar("hold", 0)
	last := w.Nest.Iterations()
	var buf []sim.Op
	return func(dst []sim.Op, iter int64) []sim.Op {
		if s.kind == sim.OpWait && iter == 1 {
			dst = append(dst, sim.WaitGE(hold, 1, "hold"))
		}
		buf = prog(buf[:0], iter)
		for _, op := range buf {
			if op.Kind != s.kind {
				dst = append(dst, op)
			}
		}
		if s.kind == sim.OpWait && iter == last {
			dst = append(dst, sim.WriteVar(hold, 1, "release"))
		}
		return dst
	}, foot, nil
}

// TestRunGoroutinesWithoutWaitsDiverges: a program stripped of its waits
// runs its iterations out of order, which the serial-equivalence check
// reports.
func TestRunGoroutinesWithoutWaitsDiverges(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector fails the unsynchronized run itself")
	}
	for _, sch := range goroutineSchemes(4) {
		_, err := codegen.RunGoroutines(workloads.Fig21(40, 1), without{sch, sim.OpWait}, 3)
		if err == nil || !strings.Contains(err.Error(), "violates serial equivalence") {
			t.Errorf("%s without waits: err = %v, want a serial-equivalence violation", sch.Name(), err)
		}
	}
}

// stuckOp matches the watchdog error's naming of the stuck op.
var stuckOp = regexp.MustCompile(`iteration \d+ stuck at \S+`)

// TestRunGoroutinesWithoutWritesStalls: a program stripped of its writes
// leaves a wait that never ends, which the watchdog reports with the
// stuck op instead of hanging.
func TestRunGoroutinesWithoutWritesStalls(t *testing.T) {
	defer codegen.SetWaitWatchdog(20 * time.Millisecond)()
	for _, sch := range []codegen.Scheme{
		codegen.ProcessOriented{X: 2, Improved: true},
		codegen.ProcessOriented{X: 2, Improved: false},
		codegen.StatementOriented{},
		codegen.NewInstanceBased(),
	} {
		_, err := codegen.RunGoroutines(workloads.Fig21(40, 1), without{sch, sim.OpWrite}, 3)
		var dl *spin.DeadlineError
		if !errors.As(err, &dl) || !stuckOp.MatchString(err.Error()) {
			t.Errorf("%s without writes: err = %v, want a watchdog error naming the stuck op", sch.Name(), err)
		}
	}
}
