package dataorient_test

import (
	"testing"

	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// planCases are the nests BenchmarkBuildPlan and TestPlanAllocationsFlatInN
// plan: the one-dimensional Fig 2.1 loop and the two-dimensional stencil at
// the benchmark's size n, and the branchy loop, whose plan skips the
// untaken arm's statements.
var planCases = []struct {
	name  string
	build func(n int64) *loop.Nest
	n     int64
}{
	{"fig21", func(n int64) *loop.Nest { return workloads.Fig21(n, 4).Nest }, 80},
	{"stencil", func(n int64) *loop.Nest { return workloads.Stencil(n, 4).Nest }, 16},
	{"branchy", func(n int64) *loop.Nest { return workloads.Branchy(n, 4).Nest }, 80},
}

// TestPlanAllocationsFlatInN pins that BuildPlan allocates per plan, not per
// access or element: the same number of objects, to within slack (a
// garbage collection during the measurement can add one), at N and at 3N,
// and at most maxPlanAllocs. Before the dense layout, BuildPlan allocated
// per access and per element: 930 objects on fig21 at N=80 and 1,673 on
// stencil at N=16.
func TestPlanAllocationsFlatInN(t *testing.T) {
	const slack, maxPlanAllocs = 2, 40
	for _, c := range planCases {
		allocs := func(n int64) float64 {
			nest := c.build(n)
			return testing.AllocsPerRun(5, func() { dataorient.BuildPlan(nest) })
		}
		small, large := allocs(c.n), allocs(3*c.n)
		t.Logf("%s: %v allocations at N=%d, %v at N=%d", c.name, small, c.n, large, 3*c.n)
		if d := large - small; d > slack || d < -slack {
			t.Errorf("%s: %v allocations per plan at N=%d but %v at N=%d", c.name, small, c.n, large, 3*c.n)
		}
		if small > maxPlanAllocs {
			t.Errorf("%s: %v allocations per plan, ceiling %d", c.name, small, maxPlanAllocs)
		}
	}
}

// BenchmarkBuildPlan times one whole-iteration-space plan of each plan
// case at its size n (fig21 at N=80, stencil at N=16, branchy at N=80).
func BenchmarkBuildPlan(b *testing.B) {
	for _, c := range planCases {
		nest := c.build(c.n)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dataorient.BuildPlan(nest)
			}
		})
	}
}
