package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// breakScheme wraps a known-good scheme and rewrites the op stream each
// iteration emits. It is the verifier's negative fixture: sabotage the
// synchronization in a controlled way and both the static checker and the
// dynamic trace checker must catch the resulting race.
type breakScheme struct {
	codegen.Scheme
	label   string
	rewrite func(sim.Op) (sim.Op, bool) // replacement op, keep?
}

func (b breakScheme) Name() string { return b.Scheme.Name() + "+" + b.label }

func (b breakScheme) Instrument(m *sim.Machine, w *codegen.Workload) (sim.Program, codegen.Footprint, error) {
	prog, foot, err := b.Scheme.Instrument(m, w)
	if err != nil {
		return prog, foot, err
	}
	broken := func(iter int64) []sim.Op {
		ops := prog(iter)
		out := make([]sim.Op, 0, len(ops))
		for _, op := range ops {
			if rop, keep := b.rewrite(op); keep {
				out = append(out, rop)
			}
		}
		return out
	}
	return broken, foot, nil
}

// brokenWorkload is a distance-3 recurrence under X=2 PC folding: 2 does not
// divide 3, so the ownership-transfer chain orders only same-parity
// iterations and the dist-3 wait is the sole cross-parity ordering. Removing
// it (or pointing it at the wrong distance) is a genuine race, not one
// masked by transitive over-synchronization.
func brokenWorkload() *codegen.Workload { return workloads.Recurrence(60, 3, 4) }

func brokenBase() codegen.ProcessOriented { return codegen.ProcessOriented{X: 2, Improved: true} }

// dropWait3 removes every dist-3 wait from the program.
func dropWait3(op sim.Op) (sim.Op, bool) {
	return op, !strings.HasPrefix(op.Tag.String(), "wait_PC(3,")
}

// stretchWait3 rewrites every dist-3 wait to distance 5. With X=2 the folded
// slot of iter-5 is the slot of iter-3, so only the awaited owner changes:
// the wait is satisfiable but guards the wrong source iteration, and no
// composition of +2 transfer edges and +5 wait edges spans a distance of 3.
func stretchWait3(op sim.Op) (sim.Op, bool) {
	if !strings.HasPrefix(op.Tag.String(), "wait_PC(3,") {
		return op, true
	}
	var step, iter int64
	rest := strings.TrimPrefix(op.Tag.String(), "wait_PC(3,")
	if _, err := fmt.Sscanf(rest, "%d) i=%d", &step, &iter); err != nil {
		panic("stretchWait3: unparseable tag " + op.Tag.String())
	}
	src := iter - 5
	tag := fmt.Sprintf("wait_PC(5,%d) i=%d", step, iter)
	if src < 1 {
		return sim.Compute(0, nil, tag+" noop"), true
	}
	return sim.WaitGE(op.Var, core.PC{Owner: src, Step: step}.Pack(), tag), true
}

func brokenVariants() []breakScheme {
	return []breakScheme{
		{Scheme: brokenBase(), label: "drop-wait", rewrite: dropWait3},
		{Scheme: brokenBase(), label: "wrong-dist", rewrite: stretchWait3},
	}
}

// TestStaticCatchesBrokenScheme: removing (or mis-aiming) the dist-3 wait
// must surface statically as an uncovered-arc race with a concrete
// iteration-pair witness exactly 3 apart.
func TestStaticCatchesBrokenScheme(t *testing.T) {
	for _, bs := range brokenVariants() {
		w := brokenWorkload()
		sp, err := codegen.ExtractSyncProgram(w, bs)
		if err != nil {
			t.Fatalf("%s: extract: %v", bs.label, err)
		}
		rep := verify.Static(sp, verify.Options{})
		if rep.OK() {
			t.Fatalf("%s: broken scheme verified clean:\n%s", bs.label, rep)
		}
		var race *verify.Finding
		for i := range rep.Findings {
			if rep.Findings[i].Class == verify.Race && strings.Contains(rep.Findings[i].Arc, "flow(3)") {
				race = &rep.Findings[i]
				break
			}
		}
		if race == nil {
			t.Fatalf("%s: no race finding on the flow(3) arc:\n%s", bs.label, rep)
		}
		if len(race.SrcIter) != 1 || len(race.DstIter) != 1 {
			t.Fatalf("%s: race lacks iteration-pair witness: %+v", bs.label, race)
		}
		if race.DstIter[0]-race.SrcIter[0] != 3 {
			t.Errorf("%s: witness pair %v -> %v is not 3 apart", bs.label, race.SrcIter, race.DstIter)
		}
		if race.Pairs == 0 {
			t.Errorf("%s: race reports zero failing instance pairs", bs.label)
		}
	}
}

// TestDynamicCatchesBrokenScheme: the same sabotage must be caught by the
// vector-clock checker on a real machine trace — conflicting accesses to
// some A[i] unordered by the observed synchronization. The run may or may
// not also fail serial equivalence (timing can mask the bug); the trace
// checker flags the race either way.
func TestDynamicCatchesBrokenScheme(t *testing.T) {
	cfg := sim.Config{Processors: 8, BusLatency: 1, MemLatency: 2, Modules: 4, SyncOpCost: 1, SchedOverhead: 1}
	for _, bs := range brokenVariants() {
		w := brokenWorkload()
		_, events, err := codegen.RunSyncTraced(w, bs, cfg)
		if len(events) == 0 {
			t.Fatalf("%s: no sync trace (err=%v)", bs.label, err)
		}
		rep := verify.Dynamic(events)
		if rep.OK() {
			t.Fatalf("%s: dynamic checker missed the race (run err=%v):\n%s", bs.label, err, rep)
		}
		found := false
		for _, r := range rep.Races {
			if strings.HasPrefix(r.Loc, "A[") && r.Iter-r.PrevIter == 3 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no race on A[] between iterations 3 apart:\n%s", bs.label, rep)
		}
	}
}

// TestDynamicCleanOnShippedSchemes replays every workload x scheme trace
// through the vector-clock checker: real executions of sound schemes must
// be race-free.
func TestDynamicCleanOnShippedSchemes(t *testing.T) {
	cfg := sim.Config{Processors: 8, BusLatency: 1, MemLatency: 2, Modules: 4, SyncOpCost: 1, SchedOverhead: 1}
	for _, w := range vetWorkloads() {
		for _, s := range vetSchemes() {
			res, events, err := codegen.RunSyncTraced(w, s.sch, cfg)
			if err != nil {
				t.Fatalf("%s/%s: run: %v", w.Name, s.name, err)
			}
			if len(events) == 0 {
				t.Fatalf("%s/%s: empty sync trace", w.Name, s.name)
			}
			rep := verify.Dynamic(events)
			if !rep.OK() {
				t.Errorf("%s/%s (speedup %.2f): dynamic races:\n%s", w.Name, s.name, res.Speedup(), rep)
			}
			if rep.Accesses == 0 {
				t.Errorf("%s/%s: trace carries no memory accesses", w.Name, s.name)
			}
		}
	}
}
