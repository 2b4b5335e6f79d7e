package codegen

import (
	"testing"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
)

// The fixtures share one dependence shape: S1 -flow(1)-> S2 -flow(1)-> S3
// plus the composite S1 -flow(2)-> S3, where the long arc is covered by the
// exact-sum path through S2. The straight-line variant may eliminate it;
// the branchy variant, where S2 sits in a conditionally skipped arm, must
// not — for iterations that skip S2 the covering path neither waits nor
// publishes, so eliminating the long arc would leave S3 unsynchronized.

func coverStmts() (s1, s2, s3 *deps.Stmt) {
	r := func(arr string, off int64) deps.Ref {
		return deps.Ref{Array: arr, Index: []expr.Affine{expr.Index(1, 0, off)}}
	}
	s1 = &deps.Stmt{Name: "S1", Writes: []deps.Ref{r("A", 0)}, Cost: 1}
	s2 = &deps.Stmt{Name: "S2", Writes: []deps.Ref{r("B", 0)}, Reads: []deps.Ref{r("A", -1)}, Cost: 1}
	s3 = &deps.Stmt{Name: "S3", Writes: []deps.Ref{r("C", 0)}, Reads: []deps.Ref{r("B", -1), r("A", -2)}, Cost: 1}
	return
}

// arcSet names the summary's enforced arcs "src->dst" by statement name.
func arcSet(di *depInfo, stmts []*deps.Stmt) map[string]bool {
	set := make(map[string]bool)
	for dst, in := range di.incoming {
		for _, a := range in {
			set[stmts[a.src].Name+"->"+stmts[dst].Name] = true
		}
	}
	return set
}

// TestCoveringEliminationStraightLine: with every statement executing each
// iteration, the covered composite arc is eliminated from the enforced set.
func TestCoveringEliminationStraightLine(t *testing.T) {
	s1, s2, s3 := coverStmts()
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: 20}},
		[]loop.Node{loop.S(s1), loop.S(s2), loop.S(s3)},
	)
	di, err := analyzeWorkload(&Workload{Name: "cover-straight", Nest: nest})
	if err != nil {
		t.Fatal(err)
	}
	set := arcSet(di, nest.Stmts())
	if !set["S1->S2"] || !set["S2->S3"] {
		t.Fatalf("covering path arcs missing from enforced set: %v", set)
	}
	if set["S1->S3"] {
		t.Fatalf("S1->S3 should be covered by S1->S2->S3, got enforced set %v", set)
	}
}

// TestCoveringBypassedForBranchyNest: the same dependence shape with S2
// inside a branch arm must keep the composite arc — covering elimination is
// bypassed entirely (dedup only) because the covering path runs through a
// statement that is skipped on some iterations.
func TestCoveringBypassedForBranchyNest(t *testing.T) {
	s1, s2, s3 := coverStmts()
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: 20}},
		[]loop.Node{
			loop.S(s1),
			loop.IfNode{
				Name: "parity",
				Cond: func(idx []int64) bool { return idx[0]%2 == 0 },
				Then: []loop.Node{loop.S(s2)},
			},
			loop.S(s3),
		},
	)
	if !nest.HasBranches() {
		t.Fatal("fixture should report branches")
	}
	di, err := analyzeWorkload(&Workload{Name: "cover-branchy", Nest: nest})
	if err != nil {
		t.Fatal(err)
	}
	set := arcSet(di, nest.Stmts())
	for _, want := range []string{"S1->S2", "S2->S3", "S1->S3"} {
		if !set[want] {
			t.Errorf("dedup-only enforced set lost %s: %v", want, set)
		}
	}
	// Dedup still applies: one arc per (src, dst, distance).
	seen := make(map[[3]int64]int)
	for dst, in := range di.incoming {
		for _, a := range in {
			seen[[3]int64{int64(a.src), int64(dst), a.dist}]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("arc %v appears %d times in dedup-only set", k, n)
		}
	}
}

// TestCoveringBypassEvenWhenPathAvoidsBranch: bypass is per-nest, not
// per-arc. Even a composite arc whose covering path uses only statements
// outside any branch keeps its sync when the body has branches — the
// conservative rule the schemes rely on.
func TestCoveringBypassEvenWhenPathAvoidsBranch(t *testing.T) {
	s1, s2, s3 := coverStmts()
	extra := &deps.Stmt{Name: "S4", Writes: []deps.Ref{{Array: "D",
		Index: []expr.Affine{expr.Index(1, 0, 0)}}}, Cost: 1}
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: 20}},
		[]loop.Node{
			loop.S(s1), loop.S(s2), loop.S(s3),
			loop.IfNode{
				Name: "tail",
				Cond: func(idx []int64) bool { return idx[0]%3 == 0 },
				Then: []loop.Node{loop.S(extra)},
			},
		},
	)
	di, err := analyzeWorkload(&Workload{Name: "cover-branchy-tail", Nest: nest})
	if err != nil {
		t.Fatal(err)
	}
	set := arcSet(di, nest.Stmts())
	if !set["S1->S3"] {
		t.Errorf("branchy nest must keep S1->S3 even though its covering path avoids the branch: %v", set)
	}
}
