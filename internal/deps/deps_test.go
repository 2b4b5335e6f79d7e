package deps

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/expr"
)

// fig21 builds the loop of Fig 2.1:
//
//	DO I=1,N
//	  S1: A[I+3] = ...
//	  S2: ...    = A[I+1]
//	  S3: ...    = A[I+2]
//	  S4: A[I]   = ...
//	  S5: ...    = A[I-1]
//	END DO
func fig21() []*Stmt {
	ref := func(c int64) Ref { return Ref{Array: "A", Index: []expr.Affine{expr.Index(1, 0, c)}} }
	return []*Stmt{
		{Name: "S1", Writes: []Ref{ref(3)}, Cost: 1},
		{Name: "S2", Reads: []Ref{ref(1)}, Cost: 1},
		{Name: "S3", Reads: []Ref{ref(2)}, Cost: 1},
		{Name: "S4", Writes: []Ref{ref(0)}, Cost: 1},
		{Name: "S5", Reads: []Ref{ref(-1)}, Cost: 1},
	}
}

type wantArc struct {
	src, dst string
	kind     Kind
	dist     int64
}

func checkArcs(t *testing.T, g *Graph, arcs []Arc, want []wantArc) {
	t.Helper()
	if len(arcs) != len(want) {
		t.Fatalf("got %d arcs, want %d:\n%s", len(arcs), len(want), formatArcs(g, arcs))
	}
	for i, w := range want {
		a := arcs[i]
		if g.Stmts[a.Src].Name != w.src || g.Stmts[a.Dst].Name != w.dst ||
			a.Kind != w.kind || !a.Known || a.Dist[0] != w.dist {
			t.Errorf("arc %d = %s, want %s -%s(%d)-> %s",
				i, a.format(g.Stmts), w.src, w.kind, w.dist, w.dst)
		}
	}
}

func formatArcs(g *Graph, arcs []Arc) string {
	var b strings.Builder
	for _, a := range arcs {
		b.WriteString(a.format(g.Stmts))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFig21Graph reproduces Fig 2.1(b): the dependence graph of the
// five-statement loop, including the memory-based flow S1->S5 (distance 4)
// that the paper's figure omits because it is covered.
func TestFig21Graph(t *testing.T) {
	g := Analyze(fig21(), 1)
	checkArcs(t, g, g.CrossArcs(), []wantArc{
		{"S1", "S2", Flow, 2},
		{"S1", "S3", Flow, 1},
		{"S1", "S4", Output, 3},
		{"S1", "S5", Flow, 4},
		{"S2", "S4", Anti, 1},
		{"S3", "S4", Anti, 2},
		{"S4", "S5", Flow, 1},
	})
	if n := len(g.UnknownArcs()); n != 0 {
		t.Errorf("unknown arcs = %d, want 0", n)
	}
}

// TestFig21Enforced verifies the paper's covering observation: S1->S4
// (distance 3) is covered by S1->S3 (1) + S3->S4 (2), and the memory-based
// S1->S5 (4) is covered by the same path extended with S4->S5 (1).
func TestFig21Enforced(t *testing.T) {
	g := Analyze(fig21(), 1)
	checkArcs(t, g, g.Enforced(), []wantArc{
		{"S1", "S2", Flow, 2},
		{"S1", "S3", Flow, 1},
		{"S2", "S4", Anti, 1},
		{"S3", "S4", Anti, 2},
		{"S4", "S5", Flow, 1},
	})
}

// TestSelfDependence checks the first-order recurrence A[I] = A[I-1] + ...
func TestSelfDependence(t *testing.T) {
	s := &Stmt{
		Name:   "S1",
		Writes: []Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, 0)}}},
		Reads:  []Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, -1)}}},
	}
	g := Analyze([]*Stmt{s}, 1)
	checkArcs(t, g, g.CrossArcs(), []wantArc{{"S1", "S1", Flow, 1}})
	checkArcs(t, g, g.Enforced(), []wantArc{{"S1", "S1", Flow, 1}})
}

// TestLoopIndependent checks that same-iteration dependences are classified
// as loop-independent and excluded from enforcement.
func TestLoopIndependent(t *testing.T) {
	a := expr.Index(1, 0, 0)
	stmts := []*Stmt{
		{Name: "S1", Writes: []Ref{{Array: "A", Index: []expr.Affine{a}}}},
		{Name: "S2", Reads: []Ref{{Array: "A", Index: []expr.Affine{a}}}},
	}
	g := Analyze(stmts, 1)
	if len(g.Arcs) != 1 {
		t.Fatalf("got %d arcs, want 1:\n%s", len(g.Arcs), g)
	}
	arc := g.Arcs[0]
	if !arc.LoopIndep || arc.Kind != Flow || arc.Dist[0] != 0 {
		t.Errorf("arc = %s, want loop-independent flow(0)", arc.format(g.Stmts))
	}
	if len(g.Enforced()) != 0 {
		t.Error("loop-independent dependence should not be enforced")
	}
}

// TestIndependentRefs: accesses that can never touch the same element.
func TestIndependentRefs(t *testing.T) {
	stmts := []*Stmt{
		// A[2*I] = ...
		{Name: "S1", Writes: []Ref{{Array: "A", Index: []expr.Affine{expr.Scaled(1, 0, 2, 0)}}}},
		// ... = A[2*I+1]  (odd vs even: GCD test should prove independence)
		{Name: "S2", Reads: []Ref{{Array: "A", Index: []expr.Affine{expr.Scaled(1, 0, 2, 1)}}}},
	}
	g := Analyze(stmts, 1)
	if len(g.Arcs) != 0 {
		t.Errorf("got arcs for independent refs:\n%s", g)
	}
}

// TestDifferentArrays: no dependence between different arrays.
func TestDifferentArrays(t *testing.T) {
	stmts := []*Stmt{
		{Name: "S1", Writes: []Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, 0)}}}},
		{Name: "S2", Reads: []Ref{{Array: "B", Index: []expr.Affine{expr.Index(1, 0, 0)}}}},
	}
	if g := Analyze(stmts, 1); len(g.Arcs) != 0 {
		t.Errorf("got arcs across arrays:\n%s", g)
	}
}

// TestReadReadNoDependence: two reads never conflict.
func TestReadReadNoDependence(t *testing.T) {
	stmts := []*Stmt{
		{Name: "S1", Reads: []Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, 0)}}}},
		{Name: "S2", Reads: []Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, -1)}}}},
	}
	if g := Analyze(stmts, 1); len(g.Arcs) != 0 {
		t.Errorf("got arcs between reads:\n%s", g)
	}
}

// TestUnknownDistance: A[1] read against A[I] write has no constant distance.
func TestUnknownDistance(t *testing.T) {
	stmts := []*Stmt{
		{Name: "S1", Writes: []Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, 0)}}}},
		{Name: "S2", Reads: []Ref{{Array: "A", Index: []expr.Affine{expr.Const(1, 1)}}}},
	}
	g := Analyze(stmts, 1)
	// Both orientations are reported: the write may precede the constant
	// read (flow) and the read may precede a later write (anti).
	if n := len(g.UnknownArcs()); n != 2 {
		t.Fatalf("unknown arcs = %d, want 2:\n%s", n, g)
	}
	if len(g.CrossArcs()) != 0 {
		t.Errorf("unknown-distance arc leaked into CrossArcs:\n%s", g)
	}
}

// TestNestedDistanceVectors checks Example 2's nest:
//
//	DO I=1,N; DO J=1,M
//	  S1: A[I,J] = ...
//	  S2: B[I,J] = A[I,J-1] ...
//	  S3: ...    = B[I-1,J-1]
func ex2Stmts() []*Stmt {
	ix := func(ci, cj int64) []expr.Affine {
		return []expr.Affine{expr.Index(2, 0, ci), expr.Index(2, 1, cj)}
	}
	return []*Stmt{
		{Name: "S1", Writes: []Ref{{Array: "A", Index: ix(0, 0)}}, Cost: 1},
		{Name: "S2", Writes: []Ref{{Array: "B", Index: ix(0, 0)}}, Reads: []Ref{{Array: "A", Index: ix(0, -1)}}, Cost: 1},
		{Name: "S3", Reads: []Ref{{Array: "B", Index: ix(-1, -1)}}, Cost: 1},
	}
}

func TestNestedDistanceVectors(t *testing.T) {
	g := Analyze(ex2Stmts(), 2)
	cross := g.CrossArcs()
	if len(cross) != 2 {
		t.Fatalf("got %d cross arcs, want 2:\n%s", len(cross), g)
	}
	a0, a1 := cross[0], cross[1]
	if g.Stmts[a0.Src].Name != "S1" || g.Stmts[a0.Dst].Name != "S2" ||
		a0.Kind != Flow || a0.Dist[0] != 0 || a0.Dist[1] != 1 {
		t.Errorf("arc 0 = %s, want S1 -flow(0,1)-> S2", a0.format(g.Stmts))
	}
	if g.Stmts[a1.Src].Name != "S2" || g.Stmts[a1.Dst].Name != "S3" ||
		a1.Kind != Flow || a1.Dist[0] != 1 || a1.Dist[1] != 1 {
		t.Errorf("arc 1 = %s, want S2 -flow(1,1)-> S3", a1.format(g.Stmts))
	}
}

// TestLinearize reproduces Example 2's lpid distances: with inner extent M,
// (0,1) becomes 1 and (1,1) becomes M+1 (the paper's wait_PC(M+1, 2)).
func TestLinearize(t *testing.T) {
	const M = 5
	g := Analyze(ex2Stmts(), 2)
	lin := g.Linearize([]int64{3, M})
	cross := lin.CrossArcs()
	if len(cross) != 2 {
		t.Fatalf("got %d cross arcs after linearize, want 2:\n%s", len(cross), lin)
	}
	if d := cross[0].Dist[0]; d != 1 {
		t.Errorf("S1->S2 linearized distance = %d, want 1", d)
	}
	if d := cross[1].Dist[0]; d != M+1 {
		t.Errorf("S2->S3 linearized distance = %d, want %d", d, M+1)
	}
}

// TestLinearizeDropsUnrealizable: a lex-positive vector whose linearized
// distance is non-positive cannot link any two in-bounds iterations.
func TestLinearizeDropsUnrealizable(t *testing.T) {
	ix := func(ci, cj int64) []expr.Affine {
		return []expr.Affine{expr.Index(2, 0, ci), expr.Index(2, 1, cj)}
	}
	stmts := []*Stmt{
		{Name: "S1", Writes: []Ref{{Array: "A", Index: ix(0, 0)}}},
		{Name: "S2", Reads: []Ref{{Array: "A", Index: ix(-1, 5)}}}, // distance (1,-5)
	}
	g := Analyze(stmts, 2)
	if len(g.CrossArcs()) != 1 {
		t.Fatalf("want 1 cross arc pre-linearize:\n%s", g)
	}
	lin := g.Linearize([]int64{10, 3}) // 1*3 - 5 = -2: unrealizable
	if len(lin.CrossArcs()) != 0 {
		t.Errorf("unrealizable arc survived linearization:\n%s", lin)
	}
}

// TestEnforcedDedup merges arcs with equal (src,dst,distance): a statement
// reading the same element twice yields one enforced arc, not two.
func TestEnforcedDedup(t *testing.T) {
	i0 := expr.Index(1, 0, 0)
	i1 := expr.Index(1, 0, -1)
	s := &Stmt{
		Name:   "S1", // A[I] = A[I-1] + A[I-1]
		Writes: []Ref{{Array: "A", Index: []expr.Affine{i0}}},
		Reads: []Ref{
			{Array: "A", Index: []expr.Affine{i1}},
			{Array: "A", Index: []expr.Affine{i1}},
		},
	}
	g := Analyze([]*Stmt{s}, 1)
	if n := len(g.CrossArcs()); n != 2 {
		t.Fatalf("got %d cross arcs, want 2 (duplicate reads):\n%s", n, g)
	}
	checkArcs(t, g, g.Enforced(), []wantArc{{"S1", "S1", Flow, 1}})
}

// TestMutualCoverageViaBodyOrder documents a subtle sound elimination: for
// S1: A[I]=B[I-1]; S2: B[I]=A[I-1], the arc S1->S2 (flow, 1) is covered
// transitively by S1-(body)->S2@i, S2-(1)->S1@(i+1), S1-(body)->S2@(i+1),
// so exactly one of the two cross arcs remains enforced — and the remaining
// one must not also be removed (no unsound mutual elimination).
func TestMutualCoverageViaBodyOrder(t *testing.T) {
	i0 := expr.Index(1, 0, 0)
	i1 := expr.Index(1, 0, -1)
	stmts := []*Stmt{
		{Name: "S1", Writes: []Ref{{Array: "A", Index: []expr.Affine{i0}}}, Reads: []Ref{{Array: "B", Index: []expr.Affine{i1}}}},
		{Name: "S2", Writes: []Ref{{Array: "B", Index: []expr.Affine{i0}}}, Reads: []Ref{{Array: "A", Index: []expr.Affine{i1}}}},
	}
	g := Analyze(stmts, 1)
	if n := len(g.CrossArcs()); n != 2 {
		t.Fatalf("got %d cross arcs, want 2:\n%s", n, g)
	}
	checkArcs(t, g, g.Enforced(), []wantArc{{"S2", "S1", Flow, 1}})
}

// TestCoverageNotAppliedWhenSumDiffers: a path with a *smaller* total
// distance must not cover an arc (instances of a statement in different
// iterations are unordered in Doacross execution).
func TestCoverageNotAppliedWhenSumDiffers(t *testing.T) {
	ref := func(arr string, c int64) Ref {
		return Ref{Array: arr, Index: []expr.Affine{expr.Index(1, 0, c)}}
	}
	stmts := []*Stmt{
		// S1 writes A[I] and B[I+2]; S2 reads A[I-1] (flow d=1) and
		// B[I-1] (flow d=3). Path for d=3 via d=1 sums to 1 != 3.
		{Name: "S1", Writes: []Ref{ref("A", 0), ref("B", 2)}},
		{Name: "S2", Reads: []Ref{ref("A", -1), ref("B", -1)}},
	}
	g := Analyze(stmts, 1)
	enf := g.Enforced()
	if len(enf) != 2 {
		t.Fatalf("got %d enforced arcs, want 2 (no unsound covering):\n%s", len(enf), formatArcs(g, enf))
	}
}

// TestCoverageViaBodyOrder: an arc can be covered by a cross arc to an
// earlier statement followed by body-order into the sink.
func TestCoverageViaBodyOrder(t *testing.T) {
	ref := func(arr string, c int64) Ref {
		return Ref{Array: arr, Index: []expr.Affine{expr.Index(1, 0, c)}}
	}
	stmts := []*Stmt{
		// S1 writes A[I] and B[I]; S2 reads A[I-2]; S3 reads B[I-2].
		// S1->S3 flow(2) is covered by S1->S2 flow(2) + body edge S2->S3.
		{Name: "S1", Writes: []Ref{ref("A", 0), ref("B", 0)}},
		{Name: "S2", Reads: []Ref{ref("A", -2)}},
		{Name: "S3", Reads: []Ref{ref("B", -2)}},
	}
	g := Analyze(stmts, 1)
	enf := g.Enforced()
	checkArcs(t, g, enf, []wantArc{{"S1", "S2", Flow, 2}})
}

// TestGraphString smoke-tests deterministic rendering.
func TestGraphString(t *testing.T) {
	g := Analyze(fig21(), 1)
	s := g.String()
	if !strings.Contains(s, "S1 -flow(2)-> S2") || !strings.Contains(s, "S3 -anti(2)-> S4") {
		t.Errorf("graph rendering missing expected arcs:\n%s", s)
	}
	if s != g.String() {
		t.Error("String not deterministic")
	}
}

// randomLoop builds a random single-nest loop over small arrays.
func randomLoop(rng *rand.Rand, nStmts int) []*Stmt {
	arrays := []string{"A", "B", "C"}
	stmts := make([]*Stmt, nStmts)
	for i := range stmts {
		s := &Stmt{Name: fmt.Sprintf("S%d", i+1), Cost: 1}
		if rng.Intn(2) == 0 {
			s.Writes = []Ref{{Array: arrays[rng.Intn(len(arrays))],
				Index: []expr.Affine{expr.Index(1, 0, int64(rng.Intn(7)-3))}}}
		}
		for r := rng.Intn(3); r > 0; r-- {
			s.Reads = append(s.Reads, Ref{Array: arrays[rng.Intn(len(arrays))],
				Index: []expr.Affine{expr.Index(1, 0, int64(rng.Intn(7)-3))}})
		}
		stmts[i] = s
	}
	return stmts
}

// TestEnforcedSoundRandom: for random loops, every eliminated arc must have a
// covering exact-sum path over the kept arcs — verified independently here
// by re-running the path search against the final kept set.
func TestEnforcedSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		stmts := randomLoop(rng, 2+rng.Intn(5))
		g := Analyze(stmts, 1)
		enf := g.Enforced()
		kept := make(map[[3]int64]bool)
		for _, a := range enf {
			kept[[3]int64{int64(a.Src), int64(a.Dst), a.Dist[0]}] = true
		}
		// Every original cross arc must be either kept or covered by kept
		// arcs (sound elimination).
		for _, a := range dedupe(g.CrossArcs()) {
			key := [3]int64{int64(a.Src), int64(a.Dst), a.Dist[0]}
			if kept[key] {
				continue
			}
			if !pathExactSum(enf, len(stmts), a.Src, a.Dst, a.Dist[0]) {
				t.Fatalf("trial %d: eliminated arc %s has no covering path; enforced:\n%s\nall:\n%s",
					trial, a.format(g.Stmts), formatArcs(g, enf), g)
			}
		}
	}
}

func dedupe(arcs []Arc) []Arc {
	seen := make(map[[3]int64]bool)
	var out []Arc
	for _, a := range arcs {
		k := [3]int64{int64(a.Src), int64(a.Dst), a.Dist[0]}
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	return out
}

// pathExactSum is an independent re-implementation of the covering check
// used to cross-validate coveredBy.
func pathExactSum(arcs []Arc, nStmts, src, dst int, d int64) bool {
	type st struct {
		n int
		r int64
	}
	seen := map[st]bool{}
	var dfs func(n int, r int64, edges int) bool
	dfs = func(n int, r int64, edges int) bool {
		if n == dst && r == 0 && edges > 0 {
			return true
		}
		k := st{n, r}
		if seen[k] {
			return false
		}
		seen[k] = true
		for _, a := range arcs {
			if a.Src == n && a.Dist[0] <= r && dfs(a.Dst, r-a.Dist[0], edges+1) {
				return true
			}
		}
		for nx := n + 1; nx < nStmts; nx++ {
			if dfs(nx, r, edges+1) {
				return true
			}
		}
		return false
	}
	return dfs(src, d, 0)
}

// TestUnknownReasonClassification pins the classification of why an arc
// lands in UnknownArcs: coupled subscripts, an unconstrained (symbolic)
// index, and a GCD-inconclusive non-uniform pair each carry their reason.
func TestUnknownReasonClassification(t *testing.T) {
	cases := []struct {
		name   string
		w, r   expr.Affine
		depth  int
		reason UnknownReason
	}{
		// A[I+J] vs A[I+J-1]: one dimension couples two indexes.
		{"coupled", expr.Index(2, 0, 0).Add(expr.Index(2, 1, 0)),
			expr.Index(2, 0, -1).Add(expr.Index(2, 1, 0)), 2, ReasonCoupled},
		// A[I] vs A[I-1] in an I/J nest: J is unconstrained, so the
		// conflict realizes at (1, d2) for every d2 — a distance family.
		{"symbolic", expr.Index(2, 0, 0), expr.Index(2, 0, -1), 2, ReasonSymbolic},
		// A[I] write vs A[1] read: non-uniform variable parts; the GCD of
		// the coefficients divides the constant difference, so the test
		// cannot disprove a dependence.
		{"gcd-const", expr.Index(1, 0, 0), expr.Const(1, 1), 1, ReasonGCD},
		// A[2*I] vs A[I]: non-uniform coefficients, GCD cannot disprove.
		{"gcd", expr.Scaled(1, 0, 2, 0), expr.Index(1, 0, 0), 1, ReasonGCD},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmts := []*Stmt{
				{Name: "S1", Writes: []Ref{{Array: "A", Index: []expr.Affine{tc.w}}}},
				{Name: "S2", Reads: []Ref{{Array: "A", Index: []expr.Affine{tc.r}}}},
			}
			g := Analyze(stmts, tc.depth)
			unknown := g.UnknownArcs()
			if len(unknown) == 0 {
				t.Fatalf("no unknown arcs:\n%s", g)
			}
			for _, a := range unknown {
				if a.Reason != tc.reason {
					t.Errorf("arc %s: reason = %s, want %s", a.format(stmts), a.Reason, tc.reason)
				}
				if a.Reason == ReasonExact {
					t.Errorf("unknown arc carries ReasonExact")
				}
			}
			for _, a := range g.CrossArcs() {
				if a.Reason != ReasonExact {
					t.Errorf("known arc %s carries reason %s", a.format(stmts), a.Reason)
				}
			}
		})
	}
}

// TestIgnoredIndexIsConservative pins the fix for a soundness hole: a ref
// that ignores an index variable entirely (A[J] in an I/J nest, or the
// all-constant A[1]) conflicts with itself at every distance along the free
// axis. The analysis must report that as an unknown-distance (symbolic)
// dependence — never as independence or a loop-independent arc.
func TestIgnoredIndexIsConservative(t *testing.T) {
	refJ := Ref{Array: "A", Index: []expr.Affine{expr.Index(2, 1, 0)}}
	stmts := []*Stmt{{Name: "S1", Writes: []Ref{refJ}, Reads: []Ref{refJ}}}
	g := Analyze(stmts, 2)
	if len(g.UnknownArcs()) == 0 {
		t.Fatalf("A[J] self-update in an I/J nest reported no unknown arcs:\n%s", g)
	}
	for _, a := range g.UnknownArcs() {
		if a.Reason != ReasonSymbolic {
			t.Errorf("arc %s: reason = %s, want %s", a.format(stmts), a.Reason, ReasonSymbolic)
		}
	}
	if n := len(g.CrossArcs()); n != 0 {
		t.Errorf("CrossArcs = %d, want 0 (no constant distance exists)", n)
	}

	refC := Ref{Array: "A", Index: []expr.Affine{expr.Const(1, 1)}}
	stmts = []*Stmt{{Name: "S1", Writes: []Ref{refC}, Reads: []Ref{refC}}}
	g = Analyze(stmts, 1)
	if len(g.UnknownArcs()) == 0 {
		t.Fatalf("A[1] self-update reported no unknown arcs:\n%s", g)
	}
}
