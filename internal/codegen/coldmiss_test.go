package codegen_test

import (
	"math/rand"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// coldMiss is one /run cache miss: a workload built from its parameters,
// the scheme and the machine size.
type coldMiss struct {
	build func() *codegen.Workload
	mk    func() codegen.Scheme
	p     int
}

// coldMissMix draws count misses the way dsload's run-cold workload does:
// a uniform built-in workload with N from its range and a statement cost
// of 1..8, a uniform scheme among those the workload admits (pipeline
// only on the depth-2 nests), X and P from {2,4,8}, and the service's
// default machine for P.
func coldMissMix(count int) []coldMiss {
	type builtin struct {
		build    func(n, cost int64) *codegen.Workload
		nLo, nHi int64
		depth2   bool
	}
	builtins := []builtin{
		{func(n, c int64) *codegen.Workload { return workloads.Fig21(n, c) }, 40, 120, false},
		{func(n, c int64) *codegen.Workload { return workloads.Nested(n, 8, c) }, 12, 40, true},
		{func(n, c int64) *codegen.Workload { return workloads.Branchy(n, c) }, 40, 120, false},
		{func(n, c int64) *codegen.Workload { return workloads.Recurrence(n, 2, c) }, 40, 120, false},
		{func(n, c int64) *codegen.Workload { return workloads.Stencil(n, c) }, 12, 20, true},
	}
	schemes := []func(x int) codegen.Scheme{
		func(x int) codegen.Scheme { return codegen.ProcessOriented{X: x, Improved: true} },
		func(x int) codegen.Scheme { return codegen.ProcessOriented{X: x, Improved: false} },
		func(int) codegen.Scheme { return codegen.StatementOriented{} },
		func(int) codegen.Scheme { return codegen.RefBased{} },
		func(int) codegen.Scheme { return codegen.NewInstanceBased() },
	}
	pipeline := func(x int) codegen.Scheme { return codegen.PipelinedOuter{X: x, G: 1} }
	choices := []int{2, 4, 8}
	rng := rand.New(rand.NewSource(1))
	mix := make([]coldMiss, count)
	for i := range mix {
		b := builtins[rng.Intn(len(builtins))]
		avail := schemes
		if b.depth2 {
			avail = append([]func(int) codegen.Scheme{pipeline}, schemes...)
		}
		mk := avail[rng.Intn(len(avail))]
		n, cost := b.nLo+rng.Int63n(b.nHi-b.nLo+1), 1+rng.Int63n(8)
		x, p := choices[rng.Intn(len(choices))], choices[rng.Intn(len(choices))]
		mix[i] = coldMiss{
			build: func() *codegen.Workload { return b.build(n, cost) },
			mk:    func() codegen.Scheme { return mk(x) },
			p:     p,
		}
	}
	return mix
}

// BenchmarkColdMiss reports the time, allocations and bytes of one /run
// cache miss (ns/op, allocs/op, B/op) over the run-cold request mix.
// "fresh" runs a newly built Workload, so each op also computes the run
// invariants (serial oracle, dependence summary, data-oriented plan);
// "seeded" runs a newly built Workload handed the Shape an earlier run
// computed, as the service does on a miss whose shape its table holds, so
// each op computes the serial cycles and the plan but not the serial image
// or the dependence summary; "shared" runs Workloads an earlier Run
// already warmed, so the difference is what a miss pays for them.
func BenchmarkColdMiss(b *testing.B) {
	mix := coldMissMix(256)
	run := func(b *testing.B, w *codegen.Workload, m coldMiss) {
		if _, err := codegen.Run(w, m.mk(), sweepMixConfig(m.p, 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := mix[i%len(mix)]
			run(b, m.build(), m)
		}
	})
	b.Run("seeded", func(b *testing.B) {
		shapes := make([]*codegen.Shape, len(mix))
		for i, m := range mix {
			w := m.build()
			shapes[i] = new(codegen.Shape)
			w.Shape = shapes[i]
			run(b, w, m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := mix[i%len(mix)]
			w := m.build()
			w.Shape = shapes[i%len(mix)]
			run(b, w, m)
		}
	})
	b.Run("shared", func(b *testing.B) {
		ws := make([]*codegen.Workload, len(mix))
		for i, m := range mix {
			ws[i] = m.build()
			run(b, ws[i], m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, ws[i%len(mix)], mix[i%len(mix)])
		}
	})
}

// BenchmarkRunGoroutines reports the time, allocations and bytes of one
// run of a scheme's emitted program on goroutines (ns/op, allocs/op, B/op)
// over the run-cold request mix: codegen.RunGoroutines instruments the
// Workload, runs its iterations on P workers and checks the memory against
// serial execution. Workloads are warmed by an earlier run, so the op is
// the executor and the check, not the run invariants.
func BenchmarkRunGoroutines(b *testing.B) {
	mix := coldMissMix(256)
	ws := make([]*codegen.Workload, len(mix))
	run := func(b *testing.B, i int) {
		m := mix[i%len(mix)]
		if _, err := codegen.RunGoroutines(ws[i%len(mix)], m.mk(), m.p); err != nil {
			b.Fatal(err)
		}
	}
	for i, m := range mix {
		ws[i] = m.build()
		run(b, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, i)
	}
}
