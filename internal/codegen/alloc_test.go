package codegen_test

import (
	"runtime"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// sweepMixWorkloads and sweepMixSchemes mirror the point mix of a dsload
// sweep-3node run: four built-in workloads at mid-range sizes under the
// five verifiable schemes.
var sweepMixWorkloads = []func() *codegen.Workload{
	func() *codegen.Workload { return workloads.Fig21(90, 4) },
	func() *codegen.Workload { return workloads.Branchy(90, 4) },
	func() *codegen.Workload { return workloads.Recurrence(90, 2, 4) },
	func() *codegen.Workload { return workloads.Stencil(16, 4) },
}

var sweepMixSchemes = []func(x int) codegen.Scheme{
	func(x int) codegen.Scheme { return codegen.ProcessOriented{X: x, Improved: true} },
	func(x int) codegen.Scheme { return codegen.ProcessOriented{X: x, Improved: false} },
	func(int) codegen.Scheme { return codegen.StatementOriented{} },
	func(int) codegen.Scheme { return codegen.RefBased{} },
	func(int) codegen.Scheme { return codegen.NewInstanceBased() },
}

// sweepMixConfig is a sweep grid point as the service resolves it.
func sweepMixConfig(p int, busLat int64) sim.Config {
	return sim.Config{Processors: p, BusLatency: busLat, MemLatency: 2, Modules: p, SyncOpCost: 1, SchedOverhead: 1}
}

// runSweepMix evaluates the 36-point grid X{2,4,8,16} x P{2,4,8} x
// busLatency{1,2,4} of every workload x scheme pair, one Workload per
// sweep as service.EvalSweep shares it, and returns the points run.
func runSweepMix(tb testing.TB) int {
	points := 0
	for _, build := range sweepMixWorkloads {
		for _, mk := range sweepMixSchemes {
			w := build()
			for _, x := range []int{2, 4, 8, 16} {
				for _, p := range []int{2, 4, 8} {
					for _, lat := range []int64{1, 2, 4} {
						if _, err := codegen.Run(w, mk(x), sweepMixConfig(p, lat)); err != nil {
							tb.Fatal(err)
						}
						points++
					}
				}
			}
		}
	}
	return points
}

// BenchmarkSweepMix reports the time and allocations of one simulated
// sweep point over the mix (ns/point, allocs/point); the op is the whole
// 720-point mix.
func BenchmarkSweepMix(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	points := 0
	for i := 0; i < b.N; i++ {
		points += runSweepMix(b)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(points), "allocs/point")
}

// allocCase is one pinned point of TestRunAllocations.
type allocCase struct {
	name  string
	build func() *codegen.Workload
	mk    func() codegen.Scheme
	// fresh and shared cap the allocations of one Run with a newly built
	// Workload and with a Workload whose run invariants an earlier Run
	// already computed.
	fresh, shared float64
}

// TestRunAllocations guards the allocation diet of codegen.Run. Ceilings are
// the measured counts plus 10%. Before per-workload run invariants, lazy op
// labels and sync-trace-only Touch lists, the same runs allocated
// (fresh / shared): fig21/process 4158 / 4119, branchy/statement
// 3579 / 3534, stencil/instance 5189 / 5167.
func TestRunAllocations(t *testing.T) {
	cases := []allocCase{
		{"fig21/process", func() *codegen.Workload { return workloads.Fig21(60, 4) },
			func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: true} }, 2408, 1161},
		{"branchy/statement", func() *codegen.Workload { return workloads.Branchy(60, 4) },
			func() codegen.Scheme { return codegen.StatementOriented{} }, 2428, 1274},
		{"stencil/instance", func() *codegen.Workload { return workloads.Stencil(12, 4) },
			func() codegen.Scheme { return codegen.NewInstanceBased() }, 3499, 1528},
	}
	cfg := sweepMixConfig(4, 1)
	for _, c := range cases {
		run := func(w *codegen.Workload) {
			if _, err := codegen.Run(w, c.mk(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		fresh := testing.AllocsPerRun(5, func() { run(c.build()) })
		w := c.build()
		shared := testing.AllocsPerRun(5, func() { run(w) })
		t.Logf("%s: fresh %v, shared %v", c.name, fresh, shared)
		if fresh > c.fresh {
			t.Errorf("%s: %v allocations per Run on a fresh Workload, ceiling %v", c.name, fresh, c.fresh)
		}
		if shared > c.shared {
			t.Errorf("%s: %v allocations per Run on a shared Workload, ceiling %v", c.name, shared, c.shared)
		}
	}
}
