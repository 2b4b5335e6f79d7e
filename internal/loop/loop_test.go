package loop

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
)

func stmt1(name string, wc, rc int64) *deps.Stmt {
	return &deps.Stmt{
		Name:   name,
		Writes: []deps.Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, wc)}}},
		Reads:  []deps.Ref{{Array: "A", Index: []expr.Affine{expr.Index(1, 0, rc)}}},
		Cost:   1,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty index list accepted")
	}
	if _, err := New([]Index{{"I", 5, 4}}, nil); err == nil {
		t.Error("empty range accepted")
	}
	// Arity mismatch: depth-2 nest with depth-1 subscripts.
	s := stmt1("S1", 0, -1)
	if _, err := New([]Index{{"I", 1, 4}, {"J", 1, 4}}, []Node{S(s)}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestNewRefusesOverflow: an extent or an iteration count past int64 is
// an error, not a wrapped count. The largest counts that fit are accepted.
func TestNewRefusesOverflow(t *testing.T) {
	for _, c := range []struct {
		name string
		ix   []Index
	}{
		{"extent from MinInt64", []Index{{"I", math.MinInt64, 0}}},
		{"full int64 range", []Index{{"I", math.MinInt64, math.MaxInt64}}},
		{"extent MaxInt64+1", []Index{{"I", 0, math.MaxInt64}}},
		{"two extents of 2^32", []Index{{"I", 1, 1 << 32}, {"J", 1, 1 << 32}}},
		{"product past int64", []Index{{"I", 1, 1 << 21}, {"J", 1, 1 << 21}, {"K", 1, 1 << 21}}},
	} {
		if n, err := New(c.ix, nil); err == nil {
			t.Errorf("%s: accepted with %d iterations", c.name, n.Iterations())
		}
	}
	for _, c := range []struct {
		ix   []Index
		want int64
	}{
		{[]Index{{"I", 1, math.MaxInt64}}, math.MaxInt64},
		{[]Index{{"I", math.MinInt64, -2}}, math.MaxInt64},
		{[]Index{{"I", 1, 1 << 31}, {"J", 1, 1 << 31}}, 1 << 62},
		{[]Index{{"I", 1, 7}, {"J", 1, math.MaxInt64 / 7}}, math.MaxInt64 / 7 * 7},
	} {
		n, err := New(c.ix, nil)
		if err != nil {
			t.Errorf("%v: %v", c.ix, err)
		} else if n.Iterations() != c.want {
			t.Errorf("%v: %d iterations, want %d", c.ix, n.Iterations(), c.want)
		}
	}
}

func TestExtentsIterations(t *testing.T) {
	n := MustNew([]Index{{"I", 2, 10}, {"J", 1, 5}}, nil)
	e := n.Extents()
	if e[0] != 9 || e[1] != 5 {
		t.Errorf("Extents = %v, want [9 5]", e)
	}
	if n.Iterations() != 45 {
		t.Errorf("Iterations = %d, want 45", n.Iterations())
	}
}

func TestLpidRoundTrip(t *testing.T) {
	n := MustNew([]Index{{"I", 1, 3}, {"J", 1, 5}}, nil)
	// Example 2: lpid of (i,j) is (i-1)*M + j.
	if got := n.LpidOf([]int64{2, 3}); got != 8 {
		t.Errorf("LpidOf(2,3) = %d, want 8", got)
	}
	for lpid := int64(1); lpid <= n.Iterations(); lpid++ {
		idx := n.IndexOf(lpid)
		if back := n.LpidOf(idx); back != lpid {
			t.Errorf("round trip %d -> %v -> %d", lpid, idx, back)
		}
	}
}

func TestLpidRoundTripNonUnitLo(t *testing.T) {
	n := MustNew([]Index{{"I", 2, 6}, {"J", 3, 7}, {"K", 0, 2}}, nil)
	f := func(raw uint32) bool {
		lpid := int64(raw)%n.Iterations() + 1
		return n.LpidOf(n.IndexOf(lpid)) == lpid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLpidPanics(t *testing.T) {
	n := MustNew([]Index{{"I", 1, 3}}, nil)
	for _, bad := range []int64{0, 4, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IndexOf(%d) did not panic", bad)
				}
			}()
			n.IndexOf(bad)
		}()
	}
}

func TestStmtsFlattensBranches(t *testing.T) {
	sa, sb, sc, sd := stmt1("Sa", 0, -1), stmt1("Sb", 1, 0), stmt1("Sc", 2, 1), stmt1("Sd", 3, 2)
	n := MustNew([]Index{{"I", 1, 10}}, []Node{
		S(sa),
		IfNode{
			Name: "C1",
			Cond: func(idx []int64) bool { return idx[0]%2 == 0 },
			Then: []Node{S(sb)},
			Else: []Node{S(sc)},
		},
		S(sd),
	})
	got := n.Stmts()
	want := []*deps.Stmt{sa, sb, sc, sd}
	if len(got) != len(want) {
		t.Fatalf("Stmts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Stmts[%d] = %s, want %s", i, got[i].Name, want[i].Name)
		}
	}
	if !n.HasBranches() {
		t.Error("HasBranches = false")
	}

	even := n.FlatBodyInto(nil, []int64{2})
	if len(even) != 3 || even[1] != sb {
		t.Errorf("FlatBodyInto(even) took wrong arm: %v", names(even))
	}
	odd := n.FlatBodyInto(nil, []int64{3})
	if len(odd) != 3 || odd[1] != sc {
		t.Errorf("FlatBodyInto(odd) took wrong arm: %v", names(odd))
	}
}

func names(ss []*deps.Stmt) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

func TestAntiDiagonals(t *testing.T) {
	n := MustNew([]Index{{"I", 2, 4}, {"J", 2, 4}}, nil)
	fronts := n.AntiDiagonals()
	// Sums 4..8: sizes 1,2,3,2,1.
	wantSizes := []int{1, 2, 3, 2, 1}
	if len(fronts) != len(wantSizes) {
		t.Fatalf("got %d fronts, want %d", len(fronts), len(wantSizes))
	}
	total := 0
	for f, front := range fronts {
		if len(front) != wantSizes[f] {
			t.Errorf("front %d size = %d, want %d", f, len(front), wantSizes[f])
		}
		for _, idx := range front {
			if idx[0]+idx[1] != int64(f)+4 {
				t.Errorf("front %d contains %v with wrong sum", f, idx)
			}
		}
		total += len(front)
	}
	if total != int(n.Iterations()) {
		t.Errorf("fronts cover %d iterations, want %d", total, n.Iterations())
	}
}

func TestGroupRanges(t *testing.T) {
	got := GroupRanges(2, 10, 4)
	want := [][2]int64{{2, 5}, {6, 9}, {10, 10}}
	if len(got) != len(want) {
		t.Fatalf("GroupRanges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("group %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Exact division, and g larger than the range.
	if g := GroupRanges(1, 8, 4); len(g) != 2 || g[1] != [2]int64{5, 8} {
		t.Errorf("exact division wrong: %v", g)
	}
	if g := GroupRanges(1, 3, 10); len(g) != 1 || g[0] != [2]int64{1, 3} {
		t.Errorf("oversized group wrong: %v", g)
	}
}

func TestLinearGraph(t *testing.T) {
	// Example 2 nest; see deps tests for the full vector check.
	ix := func(ci, cj int64) []expr.Affine {
		return []expr.Affine{expr.Index(2, 0, ci), expr.Index(2, 1, cj)}
	}
	s1 := &deps.Stmt{Name: "S1", Writes: []deps.Ref{{Array: "A", Index: ix(0, 0)}}, Cost: 1}
	s2 := &deps.Stmt{Name: "S2", Writes: []deps.Ref{{Array: "B", Index: ix(0, 0)}},
		Reads: []deps.Ref{{Array: "A", Index: ix(0, -1)}}, Cost: 1}
	s3 := &deps.Stmt{Name: "S3", Reads: []deps.Ref{{Array: "B", Index: ix(-1, -1)}}, Cost: 1}
	n := MustNew([]Index{{"I", 1, 4}, {"J", 1, 5}}, []Node{S(s1), S(s2), S(s3)})
	lin := n.LinearGraph()
	enf := lin.Enforced()
	if len(enf) != 2 {
		t.Fatalf("enforced arcs = %d, want 2:\n%s", len(enf), lin)
	}
	if enf[0].Dist[0] != 1 || enf[1].Dist[0] != 6 {
		t.Errorf("linearized distances = %d,%d, want 1,6", enf[0].Dist[0], enf[1].Dist[0])
	}
}

// TestIterationsAllocationFree pins Iterations allocation-free: IndexOf
// calls it for its range check on every simulated dispatch. FlatBodyInto of a
// body without conditionals shares one precomputed slice.
func TestIterationsAllocationFree(t *testing.T) {
	n := MustNew([]Index{{"I", 2, 10}, {"J", 1, 5}}, nil)
	if got := testing.AllocsPerRun(100, func() { _ = n.Iterations() }); got != 0 {
		t.Errorf("Iterations allocates %v times per call, want 0", got)
	}
	straight := MustNew([]Index{{"I", 1, 8}}, []Node{S(stmt1("S1", 0, -1)), S(stmt1("S2", 0, -2))})
	idx := []int64{3}
	if got := testing.AllocsPerRun(100, func() { _ = straight.FlatBodyInto(nil, idx) }); got != 0 {
		t.Errorf("FlatBodyInto of a straight-line body allocates %v times per call, want 0", got)
	}
	if body := straight.FlatBodyInto(nil, idx); len(body) != 2 || body[0].Name != "S1" || body[1].Name != "S2" {
		t.Errorf("FlatBodyInto = %v, want [S1 S2]", names(body))
	}
}

func TestCond(t *testing.T) {
	v := expr.Var{K: 0, Scale: 2, Offset: 1} // source value 1 + 2*idx[0]
	cases := []struct {
		c    Cond
		name string
		at   int64 // idx[0]
		want bool
	}{
		{Cond{Index: "I", Var: v, Op: "ODD"}, "ODD(I)", 3, true},
		{Cond{Index: "I", Var: v, Op: "EVEN"}, "EVEN(I)", 3, false},
		{Cond{Index: "I", Var: expr.Var{Scale: 1}, Op: "EVEN"}, "EVEN(I)", -2, true},
		{Cond{Index: "I", Var: v, Op: "<=", C: 7}, "I<=7", 3, true},
		{Cond{Index: "I", Var: v, Op: "<", C: 7}, "I<7", 3, false},
		{Cond{Index: "I", Var: v, Op: "!=", C: 7}, "I!=7", 3, false},
		{Cond{Index: "J", Var: v, Op: ">=", C: -1}, "J>=-1", -1, true},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.name {
			t.Errorf("%+v: name %q, want %q", tc.c, got, tc.name)
		}
		if got := tc.c.Holds([]int64{tc.at}); got != tc.want {
			t.Errorf("%s at %d: %v, want %v", tc.name, tc.at, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Holds accepted an unknown test")
		}
	}()
	Cond{Index: "I", Var: v, Op: "!", C: 5}.Holds([]int64{0})
}
