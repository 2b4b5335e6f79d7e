package frontend

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
)

const corpusDir = "../../testdata/go"

func testConfig() sim.Config {
	return sim.Config{Processors: 4, BusLatency: 1, MemLatency: 2, Modules: 4,
		SyncOpCost: 1, SchedOverhead: 1}
}

func allSchemes() map[string]func() codegen.Scheme {
	return map[string]func() codegen.Scheme{
		"process":       func() codegen.Scheme { return codegen.ProcessOriented{X: 4, Improved: true} },
		"process-basic": func() codegen.Scheme { return codegen.ProcessOriented{X: 4, Improved: false} },
		"statement":     func() codegen.Scheme { return codegen.StatementOriented{} },
		"ref":           func() codegen.Scheme { return codegen.RefBased{} },
		"instance":      func() codegen.Scheme { return codegen.Scheme(codegen.NewInstanceBased()) },
	}
}

func lowerOne(t *testing.T, path string) *Loop {
	t.Helper()
	res, err := LowerFile(path)
	if err != nil {
		t.Fatalf("LowerFile(%s): %v", path, err)
	}
	for _, d := range res.Rejected {
		t.Errorf("%s: unexpected rejection: %s", path, d)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("%s: lowered %d loops, want 1", path, len(res.Loops))
	}
	return res.Loops[0]
}

// TestTwinIdentity is the golden twin test: a hand-written .do workload and
// its Go-source twin must lower to the same dependence graph, the same
// cache canon key (byte-identical content address), the same simulated
// execution and the same final memory.
func TestTwinIdentity(t *testing.T) {
	twins := []struct {
		name   string
		doFile string
		goFile string
	}{
		{"branchy", "../lang/testdata/branchy.do", filepath.Join(corpusDir, "branchy.go")},
		{"nested", filepath.Join(corpusDir, "twin_nested.do"), filepath.Join(corpusDir, "twin_nested.go")},
		{"locals", filepath.Join(corpusDir, "twin_locals.do"), filepath.Join(corpusDir, "twin_locals.go")},
		{"cond", filepath.Join(corpusDir, "twin_cond.do"), filepath.Join(corpusDir, "twin_cond.go")},
	}
	cfg := testConfig()
	for _, tw := range twins {
		t.Run(tw.name, func(t *testing.T) {
			src, err := os.ReadFile(tw.doFile)
			if err != nil {
				t.Fatal(err)
			}
			wDo, err := lang.Parse(string(src))
			if err != nil {
				t.Fatalf("lang.Parse(%s): %v", tw.doFile, err)
			}
			wGo := lowerOne(t, tw.goFile).Workload

			gDo, gGo := wDo.Nest.Analyze().String(), wGo.Nest.Analyze().String()
			if gDo != gGo {
				t.Errorf("dependence graphs differ:\n.do:\n%s\n.go:\n%s", gDo, gGo)
			}
			kDo := cache.RequestKey(wDo, "process(X=4,improved)", cfg)
			kGo := cache.RequestKey(wGo, "process(X=4,improved)", cfg)
			if kDo != kGo {
				t.Errorf("cache canon keys differ: .do %s vs .go %s", kDo, kGo)
			}
			// Identical workloads must simulate identically, cycle for cycle.
			rDo, err := codegen.Run(wDo, codegen.ProcessOriented{X: 4, Improved: true}, cfg)
			if err != nil {
				t.Fatalf(".do run: %v", err)
			}
			rGo, err := codegen.Run(wGo, codegen.ProcessOriented{X: 4, Improved: true}, cfg)
			if err != nil {
				t.Fatalf(".go run: %v", err)
			}
			if rDo.Stats.Cycles != rGo.Stats.Cycles || rDo.SerialCycles != rGo.SerialCycles {
				t.Errorf("twin runs diverge: .do %d cycles (serial %d) vs .go %d cycles (serial %d)",
					rDo.Stats.Cycles, rDo.SerialCycles, rGo.Stats.Cycles, rGo.SerialCycles)
			}
			// None of the above reads a right-hand side: twins must also
			// compute the same values.
			mDo, err := codegen.RunGoroutines(wDo, codegen.StatementOriented{}, 3)
			if err != nil {
				t.Fatalf(".do on goroutines: %v", err)
			}
			mGo, err := codegen.RunGoroutines(wGo, codegen.StatementOriented{}, 3)
			if err != nil {
				t.Fatalf(".go on goroutines: %v", err)
			}
			if d := mDo.Diff(mGo); d != "" {
				t.Errorf("twins' final memories differ: %s", d)
			}
		})
	}
}

// TestAcceptedCorpus lowers every accepted fixture and requires each
// workload to verify race-free under every statically checkable scheme, to
// execute with serial equivalence under the process scheme on the
// simulator, and to do so under every scheme on goroutines.
func TestAcceptedCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(files))
	}
	cfg := testConfig()
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "reject_") {
			continue
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			lp := lowerOne(t, f)
			for name, build := range allSchemes() {
				sp, err := codegen.ExtractSyncProgram(lp.Workload, build())
				if err != nil {
					t.Fatalf("extract %s: %v", name, err)
				}
				if rep := verify.Static(sp, verify.Options{}); !rep.OK() {
					t.Errorf("scheme %s not race-free:\n%s", name, rep)
				}
			}
			if _, err := codegen.Run(lp.Workload, codegen.ProcessOriented{X: 4, Improved: true}, cfg); err != nil {
				t.Errorf("run: %v", err)
			}
			for name, build := range allSchemes() {
				if _, err := codegen.RunGoroutines(lp.Workload, build(), 3); err != nil {
					t.Errorf("%s on goroutines: %v", name, err)
				}
			}
		})
	}
}

// TestRejectCorpus checks every reject_*.go fixture against the diagnostic
// pinned in its `// REJECT <code> line=<n>` header.
func TestRejectCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "reject_*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("reject glob: %v (%d files)", err, len(files))
	}
	header := regexp.MustCompile(`^// REJECT (\S+) line=(\d+)`)
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m := header.FindStringSubmatch(string(src))
			if m == nil {
				t.Fatalf("%s: missing `// REJECT <code> line=<n>` header", f)
			}
			wantCode := m[1]
			wantLine, _ := strconv.Atoi(m[2])
			res := Lower(filepath.Base(f), src)
			if len(res.Loops) != 0 {
				t.Errorf("lowered %d loops, want pure rejection", len(res.Loops))
			}
			if len(res.Rejected) == 0 {
				t.Fatal("no diagnostics produced")
			}
			d := res.Rejected[0]
			if d.Code != wantCode || d.Pos.Line != wantLine {
				t.Errorf("diagnostic = %s, want code %s at line %d", d, wantCode, wantLine)
			}
			if d.Pos.Line > 0 && d.Pos.Col == 0 {
				t.Errorf("diagnostic lacks a column: %s", d)
			}
		})
	}
}

// TestStrideNormalization: a stride-2 loop is renumbered to step 1 with the
// stride folded into the subscripts, preserving both the dependence
// distance and the executed values.
func TestStrideNormalization(t *testing.T) {
	lp := lowerOne(t, filepath.Join(corpusDir, "strided.go"))
	nest := lp.Workload.Nest
	if nest.Depth() != 1 || nest.Indexes[0].Lo != 0 || nest.Indexes[0].Hi != 19 {
		t.Fatalf("normalized index = %+v, want [0,19]", nest.Indexes[0])
	}
	g := nest.Analyze()
	cross := g.CrossArcs()
	if len(cross) != 1 || cross[0].Dist[0] != 1 {
		t.Fatalf("cross arcs = %v, want one distance-1 arc:\n%s", cross, g)
	}
	if n := len(g.UnknownArcs()); n != 0 {
		t.Fatalf("unknown arcs = %d, want 0:\n%s", n, g)
	}
	if _, err := codegen.Run(lp.Workload, codegen.ProcessOriented{X: 4, Improved: true}, testConfig()); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestInlineRejections covers diagnostic codes without corpus fixtures.
func TestInlineRejections(t *testing.T) {
	cases := []struct {
		name, src, code string
	}{
		{"syntax", "package p\nfunc f( {", CodeSyntax},
		{"range-loop", "package p\nfunc f(a []int64) {\n\tfor i := range a {\n\t\ta[i] = 1\n\t}\n}", CodeLoopHeader},
		{"descending", "package p\nfunc f(a []int64) {\n\tfor i := 9; i >= 1; i-- {\n\t\ta[i] = 1\n\t}\n}", CodeLoopHeader},
		{"empty-range", "package p\nfunc f(a []int64) {\n\tfor i := 5; i < 5; i++ {\n\t\ta[i] = 1\n\t}\n}", CodeEmptyRange},
		{"empty-body", "package p\nfunc f() {\n\tfor i := 1; i < 5; i++ {\n\t}\n}", CodeEmptyBody},
		{"index-write", "package p\nfunc f(a []int64) {\n\tfor i := 1; i < 5; i++ {\n\t\ti = 2\n\t}\n}", CodeIndexAssign},
		{"division", "package p\nfunc f(a []int64) {\n\tfor i := 1; i < 5; i++ {\n\t\ta[i] = a[i] / 2\n\t}\n}", CodeExpr},
		{"condition", "package p\nfunc f(a []int64) {\n\tfor i := 1; i < 5; i++ {\n\t\tif a[i] > 0 {\n\t\t\ta[i] = 1\n\t\t}\n\t}\n}", CodeCondition},
		{"three-dims", "package p\nfunc f(a [][][]int64) {\n\tfor i := 1; i < 5; i++ {\n\t\ta[i][i][i] = 1\n\t}\n}", CodeDims},
		{"under-indexed", "package p\nfunc f(a [][]int64) {\n\tfor i := 1; i < 5; i++ {\n\t\ta[i] = a[i-1]\n\t}\n}", CodeNonInteger},
		{"case-collision", "package p\nfunc f(a, A []int64) {\n\tfor i := 1; i < 5; i++ {\n\t\ta[i] = A[i]\n\t}\n}", CodeArrayShape},
		{"call-stmt", "package p\nfunc f() {\n\tfor i := 1; i < 5; i++ {\n\t\tprintln(i)\n\t}\n}", CodeCall},
		{"type-error", "package p\nfunc f(a []int64) {\n\tfor i := 1; i < 5; i++ {\n\t\ta[i] = undefinedName\n\t}\n}", CodeType},
		{"parity-negative", "package p\nfunc f(a []int64) {\n\tfor i := -3; i < 5; i++ {\n\t\tif i%2 == 1 {\n\t\t\ta[i+4] = 1\n\t\t}\n\t}\n}", CodeCondition},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Lower(tc.name+".go", []byte(tc.src))
			if len(res.Rejected) == 0 {
				t.Fatalf("no diagnostics; lowered %d loops", len(res.Loops))
			}
			if res.Rejected[0].Code != tc.code {
				t.Errorf("code = %s, want %s (diag: %s)", res.Rejected[0].Code, tc.code, res.Rejected[0])
			}
		})
	}
}

// TestMultipleLoopsPerFile: rejection is per candidate, and later nests in
// the same function get distinct workload names.
func TestMultipleLoopsPerFile(t *testing.T) {
	src := `package p
func f(a, b []int64, n int) {
	for i := 1; i < 9; i++ {
		a[i] = a[i-1] + 1
	}
	for i := 0; i < n; i++ {
		b[i] = 0
	}
	for i := 1; i < 9; i++ {
		b[i] = a[i]
	}
}`
	res := Lower("multi.go", []byte(src))
	if len(res.Loops) != 2 || len(res.Rejected) != 1 {
		t.Fatalf("got %d loops, %d rejections; want 2 and 1\n%v", len(res.Loops), len(res.Rejected), res.Rejected)
	}
	if res.Rejected[0].Code != CodeSymbolicBound {
		t.Errorf("rejection code = %s, want %s", res.Rejected[0].Code, CodeSymbolicBound)
	}
	if res.Loops[0].Workload.Name != "f" || res.Loops[1].Workload.Name != "f#3" {
		t.Errorf("workload names = %q, %q; want f, f#3",
			res.Loops[0].Workload.Name, res.Loops[1].Workload.Name)
	}
}
