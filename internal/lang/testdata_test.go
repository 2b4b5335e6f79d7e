package lang

import (
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
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
