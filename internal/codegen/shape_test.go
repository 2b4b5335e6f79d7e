package codegen_test

import (
	"reflect"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// walkCycles is the serial cycle count the oracle computed while it
// executed the loop: every statement instance the iteration runs, walked
// through the nest's conditionals, at cost(s, idx).
func walkCycles(w *codegen.Workload, cost func(s *deps.Stmt, idx []int64) int64) int64 {
	var cycles int64
	var walk func(nodes []loop.Node, idx []int64)
	walk = func(nodes []loop.Node, idx []int64) {
		for _, node := range nodes {
			switch v := node.(type) {
			case loop.StmtNode:
				cycles += cost(v.S, idx)
			case loop.IfNode:
				if v.Cond(idx) {
					walk(v.Then, idx)
				} else {
					walk(v.Else, idx)
				}
			}
		}
	}
	idx := make([]int64, w.Nest.Depth())
	for iter := int64(1); iter <= w.Nest.Iterations(); iter++ {
		walk(w.Nest.Body, w.Nest.IndexInto(idx, iter))
	}
	return cycles
}

// TestShapeIsCostFree: for each built-in at statement costs 1 to 8, the
// serial memory image is the same, and the serial cycles counted without
// the semantics equal the cycles of a walk of the executed statements; a
// workload with per-iteration costs (CostOf) is counted at those.
func TestShapeIsCostFree(t *testing.T) {
	builtins := []struct {
		name  string
		build func(cost int64) *codegen.Workload
	}{
		{"fig21", func(c int64) *codegen.Workload { return workloads.Fig21(40, c) }},
		{"nested", func(c int64) *codegen.Workload { return workloads.Nested(12, 8, c) }},
		{"branchy", func(c int64) *codegen.Workload { return workloads.Branchy(40, c) }},
		{"recurrence", func(c int64) *codegen.Workload { return workloads.Recurrence(40, 2, c) }},
		{"stencil", func(c int64) *codegen.Workload { return workloads.Stencil(12, c) }},
	}
	fixed := func(s *deps.Stmt, _ []int64) int64 { return s.Cost }
	for _, b := range builtins {
		want := codegen.SerialImage(b.build(1))
		for cost := int64(1); cost <= 8; cost++ {
			w := b.build(cost)
			if got := codegen.SerialImage(w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at cost %d: serial image differs from cost 1's", b.name, cost)
			}
			if got, want := codegen.SerialCycles(w), walkCycles(w, fixed); got != want {
				t.Errorf("%s at cost %d: %d serial cycles, the executed statements cost %d", b.name, cost, got, want)
			}
		}
	}

	// One long-running instance, as the delayed-iteration experiments set.
	w := workloads.Branchy(40, 2)
	w.CostOf = func(s *deps.Stmt, idx []int64) int64 {
		if idx[0] == 7 {
			return 100 * s.Cost
		}
		return s.Cost
	}
	want := walkCycles(w, w.CostOf)
	if got := codegen.SerialCycles(w); got != want || got == walkCycles(w, fixed) {
		t.Errorf("CostOf workload: %d serial cycles, want %d (CostOf ignored: %d)", got, want, walkCycles(w, fixed))
	}
}

// TestSeededRunMatchesOwn: Workloads at different costs that share one
// fresh Shape, run from several goroutines at once so that they race to
// compute it, each report the same result as a Workload that computes its
// own, under every scheme.
func TestSeededRunMatchesOwn(t *testing.T) {
	cfg := sweepMixConfig(4, 1)
	schemes := append([]func(x int) codegen.Scheme{func(x int) codegen.Scheme { return codegen.PipelinedOuter{X: x, G: 2} }},
		sweepMixSchemes...)
	for _, mk := range schemes {
		shape := new(codegen.Shape)
		var wg sync.WaitGroup
		for cost := int64(1); cost <= 4; cost++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seeded := workloads.Nested(10, 6, cost)
				seeded.Shape = shape
				got, err := codegen.Run(seeded, mk(4), cfg)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := codegen.Run(workloads.Nested(10, 6, cost), mk(4), cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s at cost %d: seeded result %+v, own %+v", want.Scheme, cost, got, want)
				}
			}()
		}
		wg.Wait()
	}
}
