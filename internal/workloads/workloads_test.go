package workloads

import (
	"math/rand"
	"testing"

	"github.com/csrd-repro/datasync/internal/sim"
)

func TestFig21Shape(t *testing.T) {
	w := Fig21(40, 3)
	if w.Nest.Iterations() != 40 || len(w.Nest.Stmts()) != 5 {
		t.Fatalf("shape wrong: %d iters, %d stmts", w.Nest.Iterations(), len(w.Nest.Stmts()))
	}
	mem := sim.NewMem()
	w.Setup(mem)
	a := mem.Lookup("A")
	if a == nil || a.Lo != -3 || a.Hi != 43 {
		t.Fatalf("A bounds = %+v", a)
	}
	if a.Get(5) != 1005 {
		t.Errorf("initial A[5] = %d, want 1005", a.Get(5))
	}
	enforced := w.Nest.LinearGraph().Enforced()
	if len(enforced) != 5 {
		t.Errorf("enforced arcs = %d, want 5", len(enforced))
	}
	// Semantics: run iteration 1 by hand through the Sem closures.
	s1 := w.Nest.Stmts()[0]
	out := make([]int64, 1)
	w.Sem[s1]([]int64{7}, nil, make([]int64, w.Locals), out)
	if out[0] != 73 {
		t.Errorf("S1 semantics = %v, want [73]", out)
	}
}

func TestNestedShape(t *testing.T) {
	w := Nested(6, 4, 2)
	if w.Nest.Depth() != 2 || w.Nest.Iterations() != 24 {
		t.Fatal("nest shape wrong")
	}
	enf := w.Nest.LinearGraph().Enforced()
	if len(enf) != 2 || enf[0].Dist[0] != 1 || enf[1].Dist[0] != 5 {
		t.Fatalf("linearized distances wrong: %+v", enf)
	}
	mem := sim.NewMem()
	w.Setup(mem)
	if mem.LookupGrid("A") == nil || mem.LookupGrid("B") == nil || mem.LookupGrid("OUT") == nil {
		t.Error("grids not declared")
	}
}

func TestBranchyShape(t *testing.T) {
	w := Branchy(30, 1)
	if !w.Nest.HasBranches() {
		t.Fatal("no branches")
	}
	odd := w.Nest.FlatBody([]int64{3})
	even := w.Nest.FlatBody([]int64{4})
	if odd[1].Name != "S2" || even[1].Name != "S3" {
		t.Errorf("arm resolution wrong: %s / %s", odd[1].Name, even[1].Name)
	}
}

func TestStencilShape(t *testing.T) {
	w := Stencil(10, 2)
	g := w.Nest.Analyze()
	cross := g.CrossArcs()
	if len(cross) != 2 {
		t.Fatalf("stencil arcs = %d, want 2:\n%s", len(cross), g)
	}
	wantVecs := [][2]int64{{0, 1}, {1, 0}}
	for i, a := range cross {
		if a.Dist[0] != wantVecs[i][0] || a.Dist[1] != wantVecs[i][1] {
			t.Errorf("arc %d distance = (%d,%d), want %v", i, a.Dist[0], a.Dist[1], wantVecs[i])
		}
	}
}

func TestRecurrenceShape(t *testing.T) {
	w := Recurrence(20, 3, 1)
	enf := w.Nest.LinearGraph().Enforced()
	if len(enf) != 1 || enf[0].Dist[0] != 3 {
		t.Fatalf("recurrence arcs wrong: %+v", enf)
	}
	mem := sim.NewMem()
	w.Setup(mem)
	if mem.Lookup("A").Get(-1) != 11 {
		t.Errorf("boundary init wrong: %d", mem.Lookup("A").Get(-1))
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	w1 := Random(rand.New(rand.NewSource(5)), 20, 3)
	w2 := Random(rand.New(rand.NewSource(5)), 20, 3)
	s1, s2 := w1.Nest.Stmts(), w2.Nest.Stmts()
	if len(s1) != len(s2) {
		t.Fatal("different statement counts for same seed")
	}
	for i := range s1 {
		if s1[i].Writes[0].Array != s2[i].Writes[0].Array ||
			len(s1[i].Reads) != len(s2[i].Reads) || s1[i].Cost != s2[i].Cost {
			t.Fatalf("statement %d differs for same seed", i)
		}
	}
	m1, m2 := sim.NewMem(), sim.NewMem()
	w1.Setup(m1)
	w2.Setup(m2)
	if diff := m1.Diff(m2); diff != "" {
		t.Errorf("setups differ:\n%s", diff)
	}
}

func TestRandomBranchyShape(t *testing.T) {
	w := RandomBranchy(rand.New(rand.NewSource(9)), 25)
	if !w.Nest.HasBranches() || len(w.Nest.Stmts()) != 4 {
		t.Fatal("branchy shape wrong")
	}
}

func TestRelaxSerialOracle(t *testing.T) {
	r := Relax{N: 5, Cost: 1, G: 1}
	mem, cycles := r.SerialMem()
	if cycles != 16 {
		t.Errorf("serial cycles = %d, want 16", cycles)
	}
	a := mem.LookupGrid("A")
	// A[2][2] = A[1][2] + A[2][1] = 2 + 7 = 9.
	if got := a.Get(2, 2); got != 9 {
		t.Errorf("A[2,2] = %d, want 9", got)
	}
}

func TestFFTSerialIsWalshHadamard(t *testing.T) {
	f := FFT{P: 2, Chunk: 1, Cost: 1}
	mem, _ := f.SerialMem()
	v := mem.LookupGrid("VAL")
	x0, x1 := v.Get(0, 0), v.Get(0, 1)
	if v.Get(1, 0) != x0+x1 || v.Get(1, 1) != x0-x1 {
		t.Errorf("2-point WHT wrong: in (%d,%d) out (%d,%d)", x0, x1, v.Get(1, 0), v.Get(1, 1))
	}
}
