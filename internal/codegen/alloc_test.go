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
// sweep point over the mix (ns/point, allocs/point, B/point); the op is the
// whole 720-point mix.
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
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(points), "B/point")
}

// allocCase is one pinned point of TestRunAllocations.
type allocCase struct {
	name  string
	build func() *codegen.Workload
	mk    func() codegen.Scheme
	// fresh and shared cap the allocations of one Run with a newly built
	// Workload and with a Workload whose run invariants an earlier Run
	// already computed; freshBytes and sharedBytes cap its heap bytes.
	fresh, shared           float64
	freshBytes, sharedBytes float64
}

// TestRunAllocations guards the allocation diet of codegen.Run. Ceilings are
// the measured counts plus 10%. Before per-workload run invariants, lazy op
// labels and sync-trace-only Touch lists, the same runs allocated
// (fresh / shared): fig21/process 4158 / 4119, branchy/statement
// 3579 / 3534, stencil/instance 5189 / 5167. Before the machine recycled
// each processor's op slice and kept sync vars in a slab they allocated
// 2189 / 1055 (357,184 / 238,989 bytes), 2207 / 1158 (418,464 / 340,488
// bytes) and 3181 / 1389 (489,302 / 309,826 bytes). Before statement
// effects replaced per-op closures, the event heap ordered pointer-free
// keys and the variable table was sized once, they allocated 2017 / 941
// (134,682 / 69,320 bytes), 1683 / 693 (85,410 / 41,250 bytes) and
// 2608 / 936 (312,355 / 154,008 bytes).
func TestRunAllocations(t *testing.T) {
	cases := []allocCase{
		{"fig21/process", func() *codegen.Workload { return workloads.Fig21(60, 4) },
			func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: true} },
			349, 79, 55971, 24027},
		{"branchy/statement", func() *codegen.Workload { return workloads.Branchy(60, 4) },
			func() codegen.Scheme { return codegen.StatementOriented{} },
			327, 82, 45428, 18771},
		{"stencil/instance", func() *codegen.Workload { return workloads.Stencil(12, 4) },
			func() codegen.Scheme { return codegen.NewInstanceBased() },
			1103, 38, 173325, 24016},
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
		freshB := bytesPerRun(5, func() { run(c.build()) })
		sharedB := bytesPerRun(5, func() { run(w) })
		t.Logf("%s: fresh %v, shared %v allocs; fresh %.0f, shared %.0f bytes", c.name, fresh, shared, freshB, sharedB)
		if fresh > c.fresh {
			t.Errorf("%s: %v allocations per Run on a fresh Workload, ceiling %v", c.name, fresh, c.fresh)
		}
		if shared > c.shared {
			t.Errorf("%s: %v allocations per Run on a shared Workload, ceiling %v", c.name, shared, c.shared)
		}
		if freshB > c.freshBytes {
			t.Errorf("%s: %.0f bytes per Run on a fresh Workload, ceiling %.0f", c.name, freshB, c.freshBytes)
		}
		if sharedB > c.sharedBytes {
			t.Errorf("%s: %.0f bytes per Run on a shared Workload, ceiling %.0f", c.name, sharedB, c.sharedBytes)
		}
	}
}

// TestRunAllocationsFlatInN pins that a simulated run allocates nothing per
// iteration once its per-run setup is done: on a shared Workload, whose run
// invariants an earlier Run already computed, codegen.Run allocates the same
// number of objects, to within a small constant, at two problem sizes. A
// closure, index vector, locals map or op slice built per statement or per
// iteration shows up as a count growing with N.
func TestRunAllocationsFlatInN(t *testing.T) {
	const slack = 16
	cases := []struct {
		name         string
		build        func(n int64) *codegen.Workload
		mk           func() codegen.Scheme
		small, large int64
	}{
		{"fig21/process", func(n int64) *codegen.Workload { return workloads.Fig21(n, 4) },
			func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: true} }, 60, 120},
		{"branchy/statement", func(n int64) *codegen.Workload { return workloads.Branchy(n, 4) },
			func() codegen.Scheme { return codegen.StatementOriented{} }, 60, 120},
		{"recurrence/ref", func(n int64) *codegen.Workload { return workloads.Recurrence(n, 2, 4) },
			func() codegen.Scheme { return codegen.RefBased{} }, 60, 120},
		{"stencil/instance", func(n int64) *codegen.Workload { return workloads.Stencil(n, 4) },
			func() codegen.Scheme { return codegen.NewInstanceBased() }, 12, 20},
	}
	cfg := sweepMixConfig(4, 1)
	for _, c := range cases {
		allocs := func(n int64) float64 {
			w := c.build(n)
			return testing.AllocsPerRun(5, func() {
				if _, err := codegen.Run(w, c.mk(), cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(c.small), allocs(c.large)
		t.Logf("%s: %v allocations at N=%d, %v at N=%d", c.name, small, c.small, large, c.large)
		if d := large - small; d > slack || d < -slack {
			t.Errorf("%s: %v allocations per Run at N=%d but %v at N=%d; a run may differ by at most %d",
				c.name, small, c.small, large, c.large, slack)
		}
	}
}

// bytesPerRun is the average number of heap bytes one call of f allocates,
// measured like testing.AllocsPerRun: one warm-up call, then runs calls on
// one OS thread.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
