package lang

import (
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestTestdataProgramsUnderAllSchemes parses every .do program under
// testdata and runs it under every applicable scheme on the simulator and
// on goroutines, each run checked for serial equivalence.
func TestTestdataProgramsUnderAllSchemes(t *testing.T) {
	files, err := filepath.Glob("testdata/*.do")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	cfg := sim.Config{Processors: 4, BusLatency: 1, MemLatency: 2, Modules: 4, SyncOpCost: 1}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			parse := func() *codegen.Workload {
				w, err := Parse(string(src))
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				return w
			}
			schemes := func() []codegen.Scheme {
				s := []codegen.Scheme{
					codegen.ProcessOriented{X: 4, Improved: true},
					codegen.ProcessOriented{X: 2, Improved: false},
					codegen.StatementOriented{},
					codegen.StatementOriented{K: 1},
					codegen.RefBased{},
					codegen.NewInstanceBased(),
				}
				if parse().Nest.Depth() == 2 {
					s = append(s, codegen.PipelinedOuter{X: 4, G: 2})
				}
				return s
			}
			for _, sch := range schemes() {
				if _, err := codegen.Run(parse(), sch, cfg); err != nil {
					t.Errorf("%s: %v", sch.Name(), err)
				}
			}
			for _, sch := range schemes() {
				if _, err := codegen.RunGoroutines(parse(), sch, 3); err != nil {
					t.Errorf("%s on goroutines: %v", sch.Name(), err)
				}
			}
		})
	}
}

// FuzzParse: the parser must return errors, never panic, on arbitrary
// input; accepted programs must produce a valid nest. Seeded with every
// shipped testdata program plus hand-picked near-miss inputs.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("testdata/*.do")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, fn := range files {
		b, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	seeds := []string{
		"DO I = 1, 9\n A[I] = A[I-1]\nEND DO",
		"DO I = 1, 4\nDO J = 1, 4\n A[I,J] = A[I-1,J]\nEND DO\nEND DO",
		"DO I = 1, 9\nIF ODD(I) THEN\nA[I]=1\nELSE\nA[I]=2\nEND IF\nEND DO",
		"DO I = 1, 9\n S: t = A[2*I-1] + (3*I) @5\nEND DO",
		"DO I = -3, 3\n A[I] = I\nEND DO",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !utf8.ValidString(src) {
			return
		}
		w, err := Parse(src)
		if err != nil {
			return
		}
		if w.Nest == nil || w.Nest.Iterations() < 1 {
			t.Fatalf("accepted program with invalid nest: %q", src)
		}
		// Dependence analysis must accept any parsed nest without panicking
		// (its cost depends on reference counts, not loop extents).
		if g := w.Nest.Analyze(); g == nil {
			t.Fatalf("Analyze returned nil graph for: %q", src)
		}
		// Setup must not panic either — but skip giant iteration spaces or
		// subscripts, whose (legitimate) array allocation would stall the
		// fuzzer on multi-gigabyte makes.
		if w.Nest.Iterations() > 10_000 {
			return
		}
		for _, s := range w.Nest.Stmts() {
			for _, r := range append(append([]deps.Ref{}, s.Writes...), s.Reads...) {
				for _, ix := range r.Index {
					if abs64(ix.Const) > 10_000 {
						return
					}
					for _, c := range ix.Coef {
						if abs64(c) > 10_000 {
							return
						}
					}
				}
			}
		}
		mem := sim.NewMem()
		w.Setup(mem)
	})
}

// TestFootprintMatchesDefaultSetup: for every testdata program, Footprint
// counts exactly the iterations of the nest and the elements of the arrays
// DefaultSetup declares; bounds and subscripts past int64 range stay
// finite and above them.
func TestFootprintMatchesDefaultSetup(t *testing.T) {
	files, err := filepath.Glob("testdata/*.do")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		mem := sim.NewMem()
		w.Setup(mem)
		var want int64
		seen := map[string]bool{}
		for _, s := range w.Nest.Stmts() {
			for _, r := range append(append([]deps.Ref{}, s.Writes...), s.Reads...) {
				if seen[r.Array] {
					continue
				}
				seen[r.Array] = true
				if a := mem.Lookup(r.Array); a != nil {
					want += a.Len()
				} else {
					want += mem.LookupGrid(r.Array).Len()
				}
			}
		}
		iters, elems := Footprint(w.Nest)
		if iters != float64(w.Nest.Iterations()) || elems != float64(want) {
			t.Errorf("%s: Footprint = %v iterations, %v elements; want %d, %d",
				file, iters, elems, w.Nest.Iterations(), want)
		}
	}
	// A descending subscript, a grid, and an array only the else arm
	// touches: A[10-I] spans [1,9], G[I,2J] 9 x 7, B[I] [1,9].
	down := deps.Ref{Array: "A", Index: []expr.Affine{{Coef: []int64{-1, 0}, Const: 10}}}
	grid := deps.Ref{Array: "G", Index: []expr.Affine{expr.Index(2, 0, 0), {Coef: []int64{0, 2}}}}
	elseOnly := deps.Ref{Array: "B", Index: []expr.Affine{expr.Index(2, 0, 0)}}
	nest := loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: 9}, {Name: "J", Lo: 0, Hi: 3}}, []loop.Node{
		loop.S(&deps.Stmt{Name: "S1", Writes: []deps.Ref{down}, Reads: []deps.Ref{grid}}),
		loop.IfNode{Name: "C", Cond: func([]int64) bool { return true },
			Else: []loop.Node{loop.S(&deps.Stmt{Name: "S2", Writes: []deps.Ref{elseOnly}})}},
	})
	mem := sim.NewMem()
	DefaultSetup(nest)(mem)
	want := mem.Lookup("A").Len() + mem.LookupGrid("G").Len() + mem.Lookup("B").Len()
	if iters, elems := Footprint(nest); iters != 36 || elems != float64(want) || want != 9+9*7+9 {
		t.Errorf("hand-built nest: Footprint = %v iterations, %v elements; want 36, %d (81)", iters, elems, want)
	}

	w, err := Parse("DO I = 1, 2\n  S1: A[9223372036854775807*I] = A[I]\nEND DO\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, elems := Footprint(w.Nest); !(elems > 1<<62) || elems > 1<<64 {
		t.Errorf("an overflowing subscript counts %v elements, want about 2^63", elems)
	}
}
