// Benchmarks regenerating every figure-backed experiment (see DESIGN.md's
// per-experiment index): BenchmarkE<k>... times the simulation behind
// experiment Ek and reports its headline simulated metrics, so
// `go test -bench=. -benchmem` reproduces the whole evaluation. The runtime
// barriers on goroutines are benchmarked as well.
package datasync

import (
	"fmt"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/barrier"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/dataorient"
	"github.com/csrd-repro/datasync/internal/exper"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

func benchCfg(p int) sim.Config {
	return sim.Config{Processors: p, BusLatency: 1, MemLatency: 2, Modules: p, SyncOpCost: 1, SchedOverhead: 1}
}

// runScheme executes one scheme over the Fig 2.1 loop and reports the
// simulated cycles and speedup as benchmark metrics.
func runScheme(b *testing.B, mk func() codegen.Scheme, n, cost int64, p int) {
	b.Helper()
	var res codegen.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = codegen.Run(workloads.Fig21(n, cost), mk(), benchCfg(p))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Cycles), "simCycles")
	b.ReportMetric(res.Speedup(), "simSpeedup")
}

// BenchmarkSnapshot times one exper.Snapshot, the grid every BENCH_*.json
// records (a fresh Workload per point); allocs/op is the grid's allocation
// count.
func BenchmarkSnapshot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exper.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1DependenceAnalysis regenerates Fig 2.1(b): full dependence
// analysis plus covering elimination.
func BenchmarkE1DependenceAnalysis(b *testing.B) {
	w := workloads.Fig21(100, 1)
	var arcs int
	for i := 0; i < b.N; i++ {
		arcs = len(w.Nest.LinearGraph().Enforced())
	}
	b.ReportMetric(float64(arcs), "enforcedArcs")
}

// BenchmarkE2DataOriented regenerates Fig 3.1: the whole-space
// data-oriented synchronization plan with tickets, epochs and copies.
func BenchmarkE2DataOriented(b *testing.B) {
	w := workloads.Fig21(200, 1)
	var f dataorient.Footprint
	for i := 0; i < b.N; i++ {
		f = dataorient.BuildPlan(w.Nest).Footprint()
	}
	b.ReportMetric(float64(f.Keys), "keys")
	b.ReportMetric(float64(f.Copies), "copies")
}

// BenchmarkE3StatementOriented measures Fig 3.2's scheme including the
// delayed-iteration serialization scenario.
func BenchmarkE3StatementOriented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.E3StatementSerialization(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Scheme times each synchronization scheme end to end on the
// canonical loop (the Fig 4.1/4.2 comparison).
func BenchmarkE4Scheme(b *testing.B) {
	cases := []struct {
		name string
		mk   func() codegen.Scheme
	}{
		{"process-improved", func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: true} }},
		{"process-basic", func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: false} }},
		{"statement", func() codegen.Scheme { return codegen.StatementOriented{} }},
		{"ref-based", func() codegen.Scheme { return codegen.RefBased{} }},
		{"instance-based", func() codegen.Scheme { return codegen.NewInstanceBased() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { runScheme(b, c.mk, 96, 4, 4) })
	}
}

// BenchmarkE5ImprovedPrimitives measures Fig 4.3's improvement with the
// write-coverage optimization enabled.
func BenchmarkE5ImprovedPrimitives(b *testing.B) {
	for _, improved := range []bool{false, true} {
		name := "basic"
		if improved {
			name = "improved"
		}
		b.Run(name, func(b *testing.B) {
			var res codegen.Result
			var err error
			cfg := benchCfg(4)
			cfg.BusCoverage = true
			for i := 0; i < b.N; i++ {
				res, err = codegen.Run(workloads.Fig21(96, 2),
					codegen.ProcessOriented{X: 2, Improved: improved}, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.BusBroadcasts), "busTx")
			b.ReportMetric(float64(res.Stats.BusSaved), "busSaved")
		})
	}
}

// BenchmarkE6Relaxation times Example 1's three schedules.
func BenchmarkE6Relaxation(b *testing.B) {
	r := workloads.Relax{N: 40, Cost: 10, G: 1}
	serial := (r.N - 1) * (r.N - 1) * r.Cost
	b.Run("wavefront-counter-barrier", func(b *testing.B) {
		var stats sim.Stats
		for i := 0; i < b.N; i++ {
			m := sim.New(benchCfg(4))
			bar := barrier.NewSimCounter(m, 0)
			progs := r.Wavefront(m, func(pid int, round int64) []sim.Op { return bar.Ops(round) })
			var err error
			stats, err = m.RunProcesses(progs)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Cycles), "simCycles")
		b.ReportMetric(stats.Speedup(serial), "simSpeedup")
	})
	b.Run("pipeline-PC", func(b *testing.B) {
		var stats sim.Stats
		for i := 0; i < b.N; i++ {
			m := sim.New(benchCfg(4))
			var err error
			stats, err = m.RunLoop(r.N-1, r.PipelinedPC(m, 8))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Cycles), "simCycles")
		b.ReportMetric(stats.Speedup(serial), "simSpeedup")
	})
	b.Run("pipeline-SC-starved", func(b *testing.B) {
		var stats sim.Stats
		for i := 0; i < b.N; i++ {
			m := sim.New(benchCfg(4))
			var err error
			stats, err = m.RunLoop(r.N-1, r.PipelinedSC(m, 2))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Cycles), "simCycles")
		b.ReportMetric(stats.Speedup(serial), "simSpeedup")
	})
}

// BenchmarkE7NestedLoop times the coalesced Example 2 nest.
func BenchmarkE7NestedLoop(b *testing.B) {
	var res codegen.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = codegen.Run(workloads.Nested(12, 10, 4),
			codegen.ProcessOriented{X: 8, Improved: true}, benchCfg(4))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Cycles), "simCycles")
}

// BenchmarkE8Branches times Example 3's branchy loop.
func BenchmarkE8Branches(b *testing.B) {
	var res codegen.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = codegen.Run(workloads.Branchy(60, 4),
			codegen.ProcessOriented{X: 8, Improved: true}, benchCfg(4))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Cycles), "simCycles")
}

// BenchmarkE9Barriers times Example 4's barrier comparison at P=8.
func BenchmarkE9Barriers(b *testing.B) {
	const p, rounds = 8, 6
	variants := []struct {
		name string
		ops  func(m *sim.Machine) func(int, int64) []sim.Op
	}{
		{"counter", func(m *sim.Machine) func(int, int64) []sim.Op {
			bar := barrier.NewSimCounter(m, 0)
			return func(pid int, round int64) []sim.Op { return bar.Ops(round) }
		}},
		{"flags", func(m *sim.Machine) func(int, int64) []sim.Op {
			return barrier.NewSimFlags(m, sim.Memory).Ops
		}},
		{"pc-butterfly", func(m *sim.Machine) func(int, int64) []sim.Op {
			return barrier.NewSimPCBarrier(m).Ops
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var stats sim.Stats
			for i := 0; i < b.N; i++ {
				m := sim.New(benchCfg(p))
				ops := v.ops(m)
				phase := m.Text("phase")
				progs := make([][]sim.Op, p)
				for pid := 0; pid < p; pid++ {
					var prog []sim.Op
					for r := int64(1); r <= rounds; r++ {
						prog = append(prog, sim.Compute(int64(5+(pid*3+int(r)*7)%11), 0, 0, phase))
						prog = append(prog, ops(pid, r)...)
					}
					progs[pid] = prog
				}
				var err error
				stats, err = m.RunProcesses(progs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Cycles), "simCycles")
			b.ReportMetric(float64(stats.MaxModuleQueue), "maxModuleQueue")
		})
	}
}

// BenchmarkE10FFT times Example 5's two synchronization regimes.
func BenchmarkE10FFT(b *testing.B) {
	f := workloads.FFT{P: 8, Chunk: 8, Cost: 5}
	b.Run("pairwise", func(b *testing.B) {
		var stats sim.Stats
		for i := 0; i < b.N; i++ {
			m := sim.New(benchCfg(f.P))
			var err error
			stats, err = m.RunProcesses(f.Pairwise(m))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Cycles), "simCycles")
	})
	b.Run("barrier", func(b *testing.B) {
		var stats sim.Stats
		for i := 0; i < b.N; i++ {
			m := sim.New(benchCfg(f.P))
			bar := barrier.NewSimCounter(m, 0)
			var err error
			stats, err = m.RunProcesses(f.WithBarrier(m, func(pid int, round int64) []sim.Op { return bar.Ops(round) }))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stats.Cycles), "simCycles")
	})
}

// BenchmarkE11Hardware times the section-6 traffic measurements.
func BenchmarkE11Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.E11Hardware(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12AblationX sweeps the number of process counters.
func BenchmarkE12AblationX(b *testing.B) {
	for _, x := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("X=%d", x), func(b *testing.B) {
			runScheme(b, func() codegen.Scheme {
				return codegen.ProcessOriented{X: x, Improved: true}
			}, 200, 6, 8)
		})
	}
}

// ---- Runtime (goroutine) barrier benchmarks ----

// BenchmarkRuntimeBarriers measures one barrier episode across goroutines.
func BenchmarkRuntimeBarriers(b *testing.B) {
	const p = 4
	cases := []struct {
		name string
		mk   func() func(pid int) error
	}{
		{"counter", func() func(int) error { return barrier.NewCounter(p).Await }},
		{"flags", func() func(int) error { return barrier.NewFlags(p).Await }},
		{"pc-butterfly", func() func(int) error { return barrier.NewPCButterfly(p).Await }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			// Every participant, partners included, runs exactly b.N
			// rounds, so the episode count is agreed upon up front and
			// shutdown cannot race the last round. No watchdog is armed,
			// so Await cannot fail.
			await := c.mk()
			var wg sync.WaitGroup
			for pid := 1; pid < p; pid++ {
				pid := pid
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if err := await(pid); err != nil {
							panic(err)
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := await(0); err != nil {
					b.Fatal(err)
				}
			}
			wg.Wait()
		})
	}
}

// BenchmarkE13Scheduling times the dispatch-policy comparison.
func BenchmarkE13Scheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.E13Scheduling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14DataLatency times the write-visibility sweep.
func BenchmarkE14DataLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.E14DataLatency(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedOuter times the generic Example 1 pipeline scheme on
// the stencil for several groupings.
func BenchmarkPipelinedOuter(b *testing.B) {
	for _, g := range []int64{1, 4} {
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			var res codegen.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = codegen.Run(workloads.Stencil(24, 6),
					codegen.PipelinedOuter{X: 8, G: g}, benchCfg(4))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Cycles), "simCycles")
		})
	}
}

// BenchmarkRuntimeDissemination measures a non-power-of-two barrier episode.
func BenchmarkRuntimeDissemination(b *testing.B) {
	const p = 6
	bar := barrier.NewDissemination(p)
	var wg sync.WaitGroup
	for pid := 1; pid < p; pid++ {
		pid := pid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := bar.Await(pid); err != nil {
					panic(err) // no watchdog armed: cannot happen
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bar.Await(0); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkJacobiNeighborSync times the PDE neighbor-sync regime (E10.2).
func BenchmarkJacobiNeighborSync(b *testing.B) {
	j := workloads.Jacobi{P: 8, Strip: 8, Sweeps: 8, Cost: 4}
	var stats sim.Stats
	for i := 0; i < b.N; i++ {
		m := sim.New(benchCfg(j.P))
		var err error
		stats, err = m.RunProcesses(j.NeighborSync(m))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Cycles), "simCycles")
}
