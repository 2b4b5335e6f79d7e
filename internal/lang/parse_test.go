package lang

import (
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
)

const fig21Src = `
# The loop of Fig 2.1.
DO I = 1, 40
  S1: A[I+3] = I*10 + 3
  S2: t2 = A[I+1]
  S3: t3 = A[I+2]
  S4: A[I] = t2 + t3
  S5: OUT[I] = A[I-1]
END DO
`

func TestParseFig21Graph(t *testing.T) {
	w, err := Parse(fig21Src)
	if err != nil {
		t.Fatal(err)
	}
	g := w.Nest.Analyze()
	cross := g.CrossArcs()
	if len(cross) != 7 {
		t.Fatalf("cross arcs = %d, want 7:\n%s", len(cross), g)
	}
	enforced := g.Linearize(w.Nest.Extents()).Enforced()
	if len(enforced) != 5 {
		t.Fatalf("enforced arcs = %d, want 5", len(enforced))
	}
	// The statement names survive.
	if w.Nest.Stmts()[3].Name != "S4" {
		t.Errorf("statement 3 named %s", w.Nest.Stmts()[3].Name)
	}
}

func TestParsedWorkloadRunsUnderSchemes(t *testing.T) {
	cfg := sim.Config{Processors: 4, BusLatency: 1, MemLatency: 2, Modules: 4, SyncOpCost: 1}
	schemes := []codegen.Scheme{
		codegen.ProcessOriented{X: 4, Improved: true},
		codegen.StatementOriented{},
		codegen.RefBased{},
		codegen.NewInstanceBased(),
	}
	for _, sch := range schemes {
		w, err := Parse(fig21Src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codegen.Run(w, sch, cfg); err != nil {
			t.Errorf("%s: %v", sch.Name(), err)
		}
	}
}

func TestParseNested(t *testing.T) {
	src := `
DO I = 1, 6
DO J = 1, 5
  A[I,J] = I*100 + J @3
  B[I,J] = A[I,J-1] + 1
  OUT[I,J] = B[I-1,J-1] * 2
END DO
END DO
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if w.Nest.Depth() != 2 || w.Nest.Iterations() != 30 {
		t.Fatalf("nest shape wrong: depth %d iters %d", w.Nest.Depth(), w.Nest.Iterations())
	}
	if w.Nest.Stmts()[0].Cost != 3 {
		t.Errorf("cost suffix not applied: %d", w.Nest.Stmts()[0].Cost)
	}
	enforced := w.Nest.LinearGraph().Enforced()
	if len(enforced) != 2 || enforced[0].Dist[0] != 1 || enforced[1].Dist[0] != 6 {
		t.Fatalf("linearized distances wrong: %+v", enforced)
	}
	if _, err := codegen.Run(w, codegen.ProcessOriented{X: 4, Improved: true},
		sim.Config{Processors: 3, BusLatency: 1, SyncOpCost: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBranches(t *testing.T) {
	src := `
DO I = 1, 30
  A[I+1] = I*3
  IF ODD(I) THEN
    B[I+2] = A[I] + 1000
  ELSE
    B[I+2] = A[I] - 5
  END IF
  C[I] = B[I]
END DO
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Nest.HasBranches() {
		t.Fatal("branches not detected")
	}
	odd := w.Nest.FlatBodyInto(nil, []int64{3})
	even := w.Nest.FlatBodyInto(nil, []int64{4})
	if len(odd) != 3 || len(even) != 3 || odd[1] == even[1] {
		t.Fatalf("branch arms not resolved: odd=%d even=%d", len(odd), len(even))
	}
	for _, sch := range []codegen.Scheme{
		codegen.ProcessOriented{X: 2, Improved: true},
		codegen.StatementOriented{},
		codegen.RefBased{},
	} {
		w, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codegen.Run(w, sch,
			sim.Config{Processors: 3, BusLatency: 1, MemLatency: 2, Modules: 2, SyncOpCost: 1}); err != nil {
			t.Errorf("%s: %v", sch.Name(), err)
		}
	}
}

func TestParseComparisons(t *testing.T) {
	src := `
DO I = 1, 10
  IF I <= 5 THEN
    A[I] = 1
  ELSE
    A[I] = 2
  END IF
END DO
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := w.Nest.FlatBodyInto(nil, []int64{5})
	hi := w.Nest.FlatBodyInto(nil, []int64{6})
	if lo[0] == hi[0] {
		t.Error("comparison condition not discriminating")
	}
}

func TestParseScaledSubscripts(t *testing.T) {
	src := `
DO I = 1, 10
  A[2*I] = I
  t = A[2*I-2]
END DO
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	arcs := w.Nest.Analyze().CrossArcs()
	if len(arcs) != 1 || arcs[0].Dist[0] != 1 || arcs[0].Kind != deps.Flow {
		t.Fatalf("scaled subscript dependence wrong: %+v", arcs)
	}
}

func TestParseExpressionSemantics(t *testing.T) {
	src := `
DO I = 1, 4
  A[I] = (I + 2) * 3 - -1
END DO
`
	w, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMem()
	w.Setup(mem)
	prog := func(iter int64) []sim.Op { return nil }
	_ = prog
	// Run serially through codegen with a single processor.
	if _, err := codegen.Run(w, codegen.ProcessOriented{X: 1, Improved: true},
		sim.Config{Processors: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                                   // no DO
		"DO I = 1, 0\nA[I]=1\nEND DO",                        // empty range
		"DO I = 1, 5\nA[J]=1\nEND DO",                        // unknown index
		"DO I = 1, 5\nA[I]=1",                                // missing END DO
		"DO I = 1, 5\nI = 3\nEND DO",                         // assign to index
		"DO I = 1, 5\nA[I] = $\nEND DO",                      // bad character
		"DO I = 1, 5\nA[I,J,I]= 1\nEND DO",                   // too many dims / unknown J
		"DO I = 1, 5\nIF ODD(I)\nEND DO",                     // missing THEN
		"DO I = 1, 5\nA[I] = 1 2\nEND DO",                    // trailing junk
		"DO I = 1, 5\nA[I] = 1 @-2\nEND DO",                  // negative cost
		"DO I = 1, 5\nA[I]=1\nEND DO\nextra",                 // trailing input
		"DO I = 1, 5\nIF I ! 5 THEN\nA[I]=1\nEND IF\nEND DO", // lone ! is no comparison
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted invalid program:\n%s", src)
		}
	}
}

func TestParseSetupBounds(t *testing.T) {
	w, err := Parse(fig21Src)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMem()
	w.Setup(mem)
	a := mem.Lookup("A")
	if a == nil || a.Lo != 0 || a.Hi != 43 {
		t.Fatalf("A bounds = %+v, want [0,43]", a)
	}
	out := mem.Lookup("OUT")
	if out == nil || out.Lo != 1 || out.Hi != 40 {
		t.Fatalf("OUT bounds wrong: %+v", out)
	}
	// Initial values are deterministic.
	mem2 := sim.NewMem()
	w.Setup(mem2)
	if diff := mem.Diff(mem2); diff != "" {
		t.Errorf("Setup not deterministic:\n%s", diff)
	}
}

func TestLexLineNumbersInErrors(t *testing.T) {
	_, err := Parse("DO I = 1, 5\nA[I] = ^\nEND DO")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks line number: %v", err)
	}
}
