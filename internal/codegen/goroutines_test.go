package codegen_test

import (
	"errors"
	"fmt"
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

// runRow is one row of TestRunGoroutines: a workload run on goroutines
// under each of its schemes at each worker count.
type runRow struct {
	name    string
	build   func() *codegen.Workload
	schemes func() []codegen.Scheme // fresh instances: instance-based is stateful
	procs   []int
	wantErr bool                 // the scheme must refuse the workload
	check   func(*sim.Mem) error // an extra check on the returned memory
}

func one(s ...codegen.Scheme) func() []codegen.Scheme {
	return func() []codegen.Scheme { return s }
}

func process(x int) codegen.Scheme { return codegen.ProcessOriented{X: x, Improved: true} }

// TestRunGoroutines is the goroutine executor's table. Its matrix rows run
// every built-in workload under the six schemes at P = 1, 3 and 8, plus
// the outer pipeline at G = 1 and 2 on the depth-2 workloads; the rows
// after them take larger sizes, single schemes, random loops and the
// returned memory. Each run must match the serial memory image.
func TestRunGoroutines(t *testing.T) {
	var rows []runRow
	for _, b := range []struct {
		name  string
		build func() *codegen.Workload
	}{
		{"fig21", func() *codegen.Workload { return workloads.Fig21(60, 4) }},
		{"nested", func() *codegen.Workload { return workloads.Nested(9, 7, 4) }},
		{"branchy", func() *codegen.Workload { return workloads.Branchy(60, 4) }},
		{"recurrence", func() *codegen.Workload { return workloads.Recurrence(60, 2, 4) }},
		{"stencil", func() *codegen.Workload { return workloads.Stencil(9, 4) }},
	} {
		schemes := func() []codegen.Scheme { return goroutineSchemes(4) }
		if b.build().Nest.Depth() == 2 {
			schemes = func() []codegen.Scheme {
				return append(goroutineSchemes(4), codegen.PipelinedOuter{X: 4, G: 1}, codegen.PipelinedOuter{X: 4, G: 2})
			}
		}
		rows = append(rows, runRow{name: b.name + "_matrix", build: b.build, schemes: schemes, procs: []int{1, 3, 8}})
	}
	outIs1000 := func(mem *sim.Mem) error {
		// OUT[1] = A[0] initial = 1000+0.
		if out := mem.Lookup("OUT"); out == nil || out.Get(1) != 1000 {
			return errors.New("OUT[1] is not the initial A[0] = 1000")
		}
		return nil
	}
	statement := func(ks ...int) func() []codegen.Scheme {
		return func() (out []codegen.Scheme) {
			for _, k := range ks {
				out = append(out, codegen.StatementOriented{K: k})
			}
			return out
		}
	}
	rows = append(rows,
		runRow{name: "fig21_N300", build: func() *codegen.Workload { return workloads.Fig21(300, 1) },
			schemes: one(process(1), process(4), process(8)), procs: []int{2, 3, 4}},
		runRow{name: "nested_20x15", build: func() *codegen.Workload { return workloads.Nested(20, 15, 1) },
			schemes: one(process(8)), procs: []int{4}},
		runRow{name: "branchy_N200", build: func() *codegen.Workload { return workloads.Branchy(200, 1) },
			schemes: one(process(4), codegen.ProcessOriented{X: 4}), procs: []int{4}},
		runRow{name: "stencil_pipeline_N30", build: func() *codegen.Workload { return workloads.Stencil(30, 1) },
			schemes: one(codegen.PipelinedOuter{X: 8, G: 1}, codegen.PipelinedOuter{X: 8, G: 4}), procs: []int{4}},
		runRow{name: "nested_pipeline_25x20", build: func() *codegen.Workload { return workloads.Nested(25, 20, 1) },
			schemes: one(codegen.PipelinedOuter{X: 4, G: 2}), procs: []int{4}},
		runRow{name: "pipeline_rejects_depth1", build: func() *codegen.Workload { return workloads.Fig21(10, 1) },
			schemes: one(codegen.PipelinedOuter{X: 2, G: 1}), procs: []int{2}, wantErr: true},
		runRow{name: "returned_memory", build: func() *codegen.Workload { return workloads.Fig21(50, 1) },
			schemes: func() []codegen.Scheme { return []codegen.Scheme{process(4), codegen.NewInstanceBased()} },
			procs:   []int{2}, check: outIs1000},
		runRow{name: "statement_fig21_N200", build: func() *codegen.Workload { return workloads.Fig21(200, 1) },
			schemes: statement(0, 1, 2), procs: []int{4}},
		runRow{name: "statement_branchy_N120", build: func() *codegen.Workload { return workloads.Branchy(120, 1) },
			schemes: statement(0, 1, 2), procs: []int{3}},
		runRow{name: "statement_nested_15x12", build: func() *codegen.Workload { return workloads.Nested(15, 12, 1) },
			schemes: statement(0), procs: []int{4}},
	)
	for _, ref := range []struct {
		name  string
		build func() *codegen.Workload
	}{
		{"fig21_N150", func() *codegen.Workload { return workloads.Fig21(150, 1) }},
		{"branchy_N100", func() *codegen.Workload { return workloads.Branchy(100, 1) }},
		{"nested_12x10", func() *codegen.Workload { return workloads.Nested(12, 10, 1) }},
		{"selfrmw_N80", func() *codegen.Workload { return workloads.SelfRMW(80, 1) }},
	} {
		rows = append(rows, runRow{name: "ref_" + ref.name, build: ref.build, schemes: one(codegen.RefBased{}), procs: []int{4}})
	}
	// Random loops under the process-oriented scheme at random counter and
	// worker counts.
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
		rows = append(rows, runRow{
			name:    fmt.Sprintf("random_seed%d_n%d_stmts%d", seed, n, nStmts),
			build:   func() *codegen.Workload { return workloads.Random(rand.New(rand.NewSource(seed)), n, nStmts) },
			schemes: one(process(x)), procs: []int{procs}})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, p := range r.procs {
				for _, sch := range r.schemes() {
					mem, err := codegen.RunGoroutines(r.build(), sch, p)
					switch {
					case r.wantErr:
						if err == nil {
							t.Errorf("%s P=%d: accepted, want a refusal", sch.Name(), p)
						}
					case err != nil:
						t.Errorf("%s P=%d: %v", sch.Name(), p, err)
					case r.check != nil:
						if err := r.check(mem); err != nil {
							t.Errorf("%s P=%d: %v", sch.Name(), p, err)
						}
					}
				}
			}
		})
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
	holdTag, releaseTag := m.Text("hold"), m.Text("release")
	var buf []sim.Op
	return func(dst []sim.Op, iter int64) []sim.Op {
		if s.kind == sim.OpWait && iter == 1 {
			dst = append(dst, sim.WaitGE(hold, 1, holdTag))
		}
		buf = prog(buf[:0], iter)
		for _, op := range buf {
			if op.Kind != s.kind {
				dst = append(dst, op)
			}
		}
		if s.kind == sim.OpWait && iter == last {
			dst = append(dst, sim.WriteVar(hold, 1, releaseTag))
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
