package codegen_test

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

func cfg(p int) sim.Config {
	return sim.Config{Processors: p, BusLatency: 1, MemLatency: 2, Modules: 4, SyncOpCost: 1, SchedOverhead: 1}
}

// allSchemes returns a fresh instance of each scheme (instance-based is
// stateful).
func allSchemes(x int) []codegen.Scheme {
	return []codegen.Scheme{
		codegen.ProcessOriented{X: x, Improved: true},
		codegen.ProcessOriented{X: x, Improved: false},
		codegen.StatementOriented{},
		codegen.RefBased{},
		codegen.NewInstanceBased(),
	}
}

// TestFig21AllSchemesSerialEquivalent is the central correctness matrix:
// every scheme, several machine shapes, one canonical loop.
func TestFig21AllSchemesSerialEquivalent(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		for _, x := range []int{1, 2, 8} {
			for _, sch := range allSchemes(x) {
				w := workloads.Fig21(60, 3)
				res, err := codegen.Run(w, sch, cfg(p))
				if err != nil {
					t.Fatalf("P=%d X=%d %s: %v", p, x, sch.Name(), err)
				}
				if res.Stats.Iterations != 60 {
					t.Errorf("P=%d %s: ran %d iterations", p, sch.Name(), res.Stats.Iterations)
				}
			}
		}
	}
}

// TestFig42bProgramShape checks the generated process-oriented program for
// an interior iteration against the paper's transformed loop (Fig 4.2b):
// get_PC, set_PC(1), wait_PC(2,1), set_PC(2), wait_PC(1,1), set_PC(3),
// wait_PC(1,2), wait_PC(2,3), release, wait_PC(1,4), in statement order.
func TestFig42bProgramShape(t *testing.T) {
	w := workloads.Fig21(30, 1)
	m := sim.New(cfg(2))
	w.Setup(m.Mem())
	sch := codegen.ProcessOriented{X: 4, Improved: false}
	prog, foot, err := sch.Instrument(m, w)
	if err != nil {
		t.Fatal(err)
	}
	if foot.SyncVars != 4 {
		t.Errorf("SyncVars = %d, want 4", foot.SyncVars)
	}
	var tags []string
	for _, op := range prog(nil, 10) {
		tags = append(tags, op.Tag.String())
	}
	got := strings.Join(tags, "; ")
	want := []string{
		"S1", "get_PC i=10", "set_PC(1) i=10",
		"wait_PC(2,1) i=10", "S2", "set_PC(2) i=10",
		"wait_PC(1,1) i=10", "S3", "set_PC(3) i=10",
		"wait_PC(1,2) i=10", "wait_PC(2,3) i=10", "S4",
		"transfer_PC:own i=10", "transfer_PC:release i=10",
		"wait_PC(1,4) i=10", "S5",
	}
	if got != strings.Join(want, "; ") {
		t.Errorf("program for iteration 10:\n got: %s\nwant: %s", got, strings.Join(want, "; "))
	}
}

// TestFig42bImprovedProgramShape checks the improved-primitive variant
// (Fig 4.3): marks replace sets and no get_PC is needed.
func TestFig42bImprovedProgramShape(t *testing.T) {
	w := workloads.Fig21(30, 1)
	m := sim.New(cfg(2))
	w.Setup(m.Mem())
	prog, _, err := codegen.ProcessOriented{X: 4, Improved: true}.Instrument(m, w)
	if err != nil {
		t.Fatal(err)
	}
	var tags []string
	for _, op := range prog(nil, 10) {
		tags = append(tags, op.Tag.String())
	}
	got := strings.Join(tags, "; ")
	want := "S1; mark_PC(1) i=10; wait_PC(2,1) i=10; S2; mark_PC(2) i=10; " +
		"wait_PC(1,1) i=10; S3; mark_PC(3) i=10; wait_PC(1,2) i=10; wait_PC(2,3) i=10; S4; " +
		"transfer_PC:own i=10; transfer_PC:release i=10; wait_PC(1,4) i=10; S5"
	if got != want {
		t.Errorf("improved program:\n got: %s\nwant: %s", got, want)
	}
}

// TestBoundaryIterationSkipsWaits: iteration 1 has no live sources, so the
// generated program contains no waits other than ownership.
func TestBoundaryIterationSkipsWaits(t *testing.T) {
	w := workloads.Fig21(30, 1)
	m := sim.New(cfg(2))
	w.Setup(m.Mem())
	prog, _, err := codegen.ProcessOriented{X: 4, Improved: true}.Instrument(m, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range prog(nil, 1) {
		if strings.HasPrefix(op.Tag.String(), "wait_PC(") {
			t.Errorf("iteration 1 contains %s", op.Tag.String())
		}
	}
}

// TestNestedAllSchemes runs Example 2's coalesced nest under every scheme.
func TestNestedAllSchemes(t *testing.T) {
	for _, sch := range allSchemes(4) {
		w := workloads.Nested(8, 5, 2)
		if _, err := codegen.Run(w, sch, cfg(4)); err != nil {
			t.Errorf("%s: %v", sch.Name(), err)
		}
	}
}

// TestBranchyAllSchemes runs the Example 3 loop under every scheme; the
// branch-covering publications must keep every path live.
func TestBranchyAllSchemes(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, x := range []int{1, 2, 8} {
			for _, sch := range allSchemes(x) {
				w := workloads.Branchy(50, 2)
				if _, err := codegen.Run(w, sch, cfg(p)); err != nil {
					t.Errorf("P=%d X=%d %s: %v", p, x, sch.Name(), err)
				}
			}
		}
	}
}

// TestBranchyCoveringMarks: the taken arm publishes the untaken arm's step.
func TestBranchyCoveringMarks(t *testing.T) {
	w := workloads.Branchy(20, 1)
	m := sim.New(cfg(2))
	w.Setup(m.Mem())
	prog, _, err := codegen.ProcessOriented{X: 2, Improved: true}.Instrument(m, w)
	if err != nil {
		t.Fatal(err)
	}
	// Odd iteration: Then (S2, step 2) runs; Else (S3, step 3) skipped:
	// mark(2) from S2, then covering mark(3).
	oddTags := tags(prog(nil, 11))
	if !containsInOrder(oddTags, "S2", "mark_PC(2) i=11", "mark_PC(3) i=11", "S4") {
		t.Errorf("odd iteration misses covering mark: %v", oddTags)
	}
	// Even iteration: Else (S3) runs; Then (S2, step 2) skipped: covering
	// mark(2) is published early, before S3 executes (the paper's "added
	// as the first statement in branch B").
	evenTags := tags(prog(nil, 12))
	if !containsInOrder(evenTags, "mark_PC(2) i=12", "S3", "mark_PC(3) i=12", "S4") {
		t.Errorf("even iteration misses early covering mark: %v", evenTags)
	}
	// Transfer happens at body end on every path (last source is in a branch).
	for _, tg := range [][]string{oddTags, evenTags} {
		if !containsInOrder(tg, "S4", "transfer_PC:release") {
			t.Errorf("transfer not at body end: %v", tg)
		}
	}
}

func tags(ops []sim.Op) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.Tag.String()
	}
	return out
}

func containsInOrder(tags []string, want ...string) bool {
	i := 0
	for _, tg := range tags {
		if i < len(want) && strings.HasPrefix(tg, want[i]) {
			i++
		}
	}
	return i == len(want)
}

// TestStatementFoldingSound: folding source statements onto fewer SCs must
// stay correct (it only loses parallelism).
func TestStatementFoldingSound(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		w := workloads.Fig21(50, 2)
		if _, err := codegen.Run(w, codegen.StatementOriented{K: k}, cfg(4)); err != nil {
			t.Errorf("K=%d: %v", k, err)
		}
	}
	for _, k := range []int{1, 2} {
		w := workloads.Branchy(40, 2)
		if _, err := codegen.Run(w, codegen.StatementOriented{K: k}, cfg(3)); err != nil {
			t.Errorf("branchy K=%d: %v", k, err)
		}
	}
}

// TestRecurrencePipelines: distance-d recurrences allow d-way pipelining;
// all schemes must be exact, and the process scheme's makespan must improve
// with d.
func TestRecurrencePipelines(t *testing.T) {
	var prev int64
	for _, d := range []int64{1, 2, 4} {
		w := workloads.Recurrence(64, d, 10)
		res, err := codegen.Run(w, codegen.ProcessOriented{X: 8, Improved: true}, cfg(4))
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if prev != 0 && res.Stats.Cycles >= prev {
			t.Errorf("d=%d cycles %d not faster than d/2's %d", d, res.Stats.Cycles, prev)
		}
		prev = res.Stats.Cycles
	}
}

// TestFootprints pins the synchronization-variable counts the comparison
// table (E4) reports: X for process-oriented, #sources for
// statement-oriented, #elements for ref-based keys, copies+bits for
// instance-based.
func TestFootprints(t *testing.T) {
	const n = 40
	run := func(sch codegen.Scheme) codegen.Footprint {
		w := workloads.Fig21(n, 1)
		res, err := codegen.Run(w, sch, cfg(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Foot
	}
	if f := run(codegen.ProcessOriented{X: 8, Improved: true}); f.SyncVars != 8 {
		t.Errorf("process SyncVars = %d, want 8", f.SyncVars)
	}
	if f := run(codegen.StatementOriented{}); f.SyncVars != 4 {
		t.Errorf("statement SyncVars = %d, want 4 (S1..S4 are sources)", f.SyncVars)
	}
	// Ref-based: elements of A touched = [0 .. N+3] => N+4 keys, plus OUT
	// has N elements (each written once, no cross-iteration deps but still
	// keyed by the data-oriented discipline).
	if f := run(codegen.RefBased{}); f.SyncVars != 2*n+4 {
		t.Errorf("ref-based SyncVars = %d, want %d", f.SyncVars, 2*n+4)
	}
	// Instance-based: one bit per copy; A has 2N writes (S1,S4) with up to
	// 2 readers, OUT N writes with none.
	f := run(codegen.NewInstanceBased())
	if f.SyncVars <= 2*n {
		t.Errorf("instance-based SyncVars = %d, want > 2N", f.SyncVars)
	}
	if f.StorageWords <= int64(f.SyncVars) {
		t.Errorf("instance-based StorageWords = %d should exceed bit count %d", f.StorageWords, f.SyncVars)
	}
}

// TestRandomLoopsPropertyAllSchemes is the repository's core property test:
// for random constant-distance loops, machines and schemes, parallel
// execution equals serial execution.
func TestRandomLoopsPropertyAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		n := int64(20 + rng.Intn(40))
		nStmts := 1 + rng.Intn(5)
		p := 1 + rng.Intn(6)
		x := 1 + rng.Intn(8)
		seed := rng.Int63()
		// Randomize the machine too: write-commit latency and chunked
		// dispatch must never affect correctness.
		c := cfg(p)
		c.DataLatency = int64(rng.Intn(4))
		if rng.Intn(3) == 0 {
			c.Dispatch = sim.DispatchChunked
			c.ChunkSize = int64(1 + rng.Intn(5))
		}
		for _, sch := range allSchemes(x) {
			w := workloads.Random(rand.New(rand.NewSource(seed)), n, nStmts)
			res, err := codegen.Run(w, sch, c)
			if err != nil {
				t.Fatalf("trial %d (seed %d, n=%d stmts=%d P=%d X=%d lat=%d disp=%v) %s: %v",
					trial, seed, n, nStmts, p, x, c.DataLatency, c.Dispatch, sch.Name(), err)
			}
			if err := res.Stats.CheckConservation(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, sch.Name(), err)
			}
		}
	}
}

// TestRandomBranchyPropertyAllSchemes: random loops with parity branches,
// every scheme, serial equivalence. Branch covering must hold under any
// machine shape.
func TestRandomBranchyPropertyAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		n := int64(20 + rng.Intn(60))
		p := 1 + rng.Intn(5)
		x := 1 + rng.Intn(6)
		seed := rng.Int63()
		for _, sch := range allSchemes(x) {
			w := workloads.RandomBranchy(rand.New(rand.NewSource(seed)), n)
			if _, err := codegen.Run(w, sch, cfg(p)); err != nil {
				t.Fatalf("trial %d (seed %d, n=%d P=%d X=%d) %s: %v",
					trial, seed, n, p, x, sch.Name(), err)
			}
		}
		// And on real goroutines.
		w := workloads.RandomBranchy(rand.New(rand.NewSource(seed)), n)
		if _, err := codegen.RunRuntime(w, x, p); err != nil {
			t.Fatalf("trial %d runtime (seed %d): %v", trial, seed, err)
		}
	}
}

// TestSelfReadModifyWrite regresses the intra-statement access-order bug
// the random property test exposed: a statement that reads and writes the
// same element (A[I+1] = f(A[I+1])) must not wait on its own key increment
// under the ref-based scheme, and must read the previous version under the
// instance-based scheme.
func TestSelfReadModifyWrite(t *testing.T) {
	for _, x := range []int{1, 4} {
		for _, sch := range allSchemes(x) {
			w := workloads.SelfRMW(40, 2)
			if _, err := codegen.Run(w, sch, cfg(4)); err != nil {
				t.Errorf("X=%d %s: %v", x, sch.Name(), err)
			}
		}
	}
	if _, err := codegen.RunRuntime(workloads.SelfRMW(60, 1), 4, 3); err != nil {
		t.Errorf("runtime: %v", err)
	}
}

// TestDataLatencyStillCorrect models the paper's requirement (1): with a
// nonzero data-write latency, every scheme must publish only after the
// commit phase, or the serial-equivalence check fails.
func TestDataLatencyStillCorrect(t *testing.T) {
	c := cfg(4)
	c.DataLatency = 5
	for _, sch := range allSchemes(4) {
		w := workloads.Fig21(50, 3)
		res, err := codegen.Run(w, sch, c)
		if err != nil {
			t.Errorf("%s: %v", sch.Name(), err)
			continue
		}
		// The commit phases must lengthen the run vs zero latency.
		base, err := codegen.Run(workloads.Fig21(50, 3), sch, cfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Cycles <= base.Stats.Cycles {
			t.Errorf("%s: DataLatency did not lengthen the run (%d vs %d)",
				sch.Name(), res.Stats.Cycles, base.Stats.Cycles)
		}
	}
	if _, err := codegen.Run(workloads.Stencil(12, 3), codegen.PipelinedOuter{X: 4, G: 2}, c); err != nil {
		t.Errorf("pipeline: %v", err)
	}
}

// TestEarlySignalDetected is the failure-injection counterpart: a producer
// that signals before its commit phase lets the consumer read a stale
// value — the behavior requirement (1) forbids and our model exposes.
func TestEarlySignalDetected(t *testing.T) {
	m := sim.New(sim.Config{Processors: 2, SyncOpCost: 0})
	arr := m.Mem().Array("A", 0, 0)
	pc := m.NewRegVar("pc", 0)
	var got int64 = -1
	_, err := m.RunProcesses([][]sim.Op{
		{
			sim.Compute(10, nil, 0, "S1"),
			sim.WriteVar(pc, 1, "signal-too-early"), // before the commit!
			sim.Compute(5, sim.EffectFunc(func(int64) { arr.Set(0, 42) }), 0, "S1:commit"),
		},
		{
			sim.WaitGE(pc, 1, "wait"),
			sim.Compute(1, sim.EffectFunc(func(int64) { got = arr.Get(0) }), 0, "S2"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == 42 {
		t.Fatal("early signal was not observable; the model cannot check requirement (1)")
	}
	if got != 0 {
		t.Fatalf("consumer read %d", got)
	}
}

// TestProcessX1StillCorrect: a single shared PC serializes ownership but
// must stay deadlock-free and exact under in-order self-scheduling.
func TestProcessX1StillCorrect(t *testing.T) {
	w := workloads.Fig21(40, 2)
	res, err := codegen.Run(w, codegen.ProcessOriented{X: 1, Improved: true}, cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 40 {
		t.Errorf("iterations = %d", res.Stats.Iterations)
	}
}

// TestImprovedReducesBroadcasts: mark_PC skips updates when ownership has
// not arrived, so the improved primitives never broadcast more than the
// basic ones (E5's direction).
func TestImprovedReducesBroadcasts(t *testing.T) {
	run := func(improved bool) sim.Stats {
		w := workloads.Fig21(80, 2)
		res, err := codegen.Run(w, codegen.ProcessOriented{X: 2, Improved: improved}, cfg(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	imp := run(true)
	basic := run(false)
	if imp.BusBroadcasts > basic.BusBroadcasts {
		t.Errorf("improved broadcasts %d > basic %d", imp.BusBroadcasts, basic.BusBroadcasts)
	}
}
