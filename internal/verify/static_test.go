package verify_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// vetSchemes are the scheme configurations the verifier is exercised
// against, covering every shipped scheme family and both folded and
// unfolded variants.
func vetSchemes() []struct {
	name string
	sch  codegen.Scheme
} {
	return []struct {
		name string
		sch  codegen.Scheme
	}{
		{"process-x4", codegen.ProcessOriented{X: 4, Improved: true}},
		{"process-x1", codegen.ProcessOriented{X: 1, Improved: true}},
		{"process-basic-x4", codegen.ProcessOriented{X: 4, Improved: false}},
		{"statement", codegen.StatementOriented{}},
		{"statement-k2", codegen.StatementOriented{K: 2}},
		{"ref", codegen.RefBased{}},
		{"instance", codegen.NewInstanceBased()},
	}
}

func vetWorkloads() []*codegen.Workload {
	return []*codegen.Workload{
		workloads.Fig21(40, 4),
		workloads.Nested(10, 8, 4),
		workloads.Branchy(40, 4),
		workloads.Recurrence(60, 3, 4),
		workloads.Stencil(11, 4),
	}
}

// TestStaticCleanOnShippedSchemes is the core soundness-of-schemes check:
// every shipped scheme must verify clean (no hard findings) on every
// workload, with full iteration-space coverage.
func TestStaticCleanOnShippedSchemes(t *testing.T) {
	for _, w := range vetWorkloads() {
		for _, s := range vetSchemes() {
			sp, err := codegen.ExtractSyncProgram(w, s.sch)
			if err != nil {
				t.Fatalf("%s/%s: extract: %v", w.Name, s.name, err)
			}
			rep := verify.Static(sp, verify.Options{})
			if !rep.OK() {
				t.Errorf("%s/%s: hard findings:\n%s", w.Name, s.name, rep)
			}
			if rep.Truncated {
				t.Errorf("%s/%s: unexpectedly truncated", w.Name, s.name)
			}
			if rep.PairsChecked == 0 {
				t.Errorf("%s/%s: no arc instance pairs checked", w.Name, s.name)
			}
		}
	}
}

// TestStaticReportShape sanity-checks the counters and text rendering.
func TestStaticReportShape(t *testing.T) {
	w := workloads.Fig21(40, 4)
	sp, err := codegen.ExtractSyncProgram(w, codegen.ProcessOriented{X: 4, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Static(sp, verify.Options{})
	if rep.Waits == 0 || rep.Signals == 0 || rep.Arcs == 0 {
		t.Fatalf("empty counters: %+v", rep)
	}
	if got := rep.String(); !strings.Contains(got, "PASS") {
		t.Fatalf("report text should PASS:\n%s", got)
	}
}

// TestStaticDuplicateStatementNames: a .do statement's explicit label may
// repeat the default name of an unlabeled one. Here both statements are
// named S2, and they must still be two statements: the verifier finds a
// statement's node by the position its op carries, never by its name.
// Looking names up folded both onto one position: under process(X=4) at
// N = 40 it saw 238 nodes and checked 39 of the 116 pairs.
func TestStaticDuplicateStatementNames(t *testing.T) {
	const dup = "DO I = 1, 40\n  S2: A[I] = A[I-1] + 1\n      B[I] = A[I-2] + B[I-1]\nEND DO\n"
	twin := strings.Replace(dup, "      B[I]", "  S3: B[I]", 1)
	parse := func(src string) *codegen.Workload {
		w, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if st := parse(dup).Nest.Stmts(); len(st) != 2 || st[0].Name != "S2" || st[1].Name != "S2" {
		t.Fatalf("want two statements named S2, parsed %d", len(st))
	}
	static := func(src string, spec service.SchemeSpec) *verify.Report {
		return verify.Static(extract(t, parse(src), spec), verify.Options{})
	}
	for _, s := range verifiableSchemes {
		spec := service.SchemeSpec{Name: s, X: 4}
		got, want := static(dup, spec), static(twin, spec)
		if got.Nodes != want.Nodes || got.PairsChecked != want.PairsChecked || !got.OK() {
			t.Errorf("%s: duplicate names give %d nodes and %d pairs, distinct names %d and %d:\n%s",
				s, got.Nodes, got.PairsChecked, want.Nodes, want.PairsChecked, got)
		}
		if s == "process" && (got.Nodes != 278 || got.PairsChecked != 116) {
			t.Errorf("process: %d nodes and %d pairs, want 278 and 116", got.Nodes, got.PairsChecked)
		}
	}
}

// TestStaticDeadlock feeds a fabricated two-iteration program whose waits
// release each other in a cycle and expects a deadlock certificate.
func TestStaticDeadlock(t *testing.T) {
	w := workloads.Recurrence(2, 1, 1)
	m := sim.New(sim.Config{Processors: 1})
	a, b := m.NewRegVar("A", 0), m.NewRegVar("B", 0)
	s1 := sim.Compute(1, 0, 0, sim.Label{})
	s1.Stmt = 1
	iter1 := []sim.Op{sim.WaitGE(a, 1, m.Text("wait A>=1 i=1")), s1, sim.WriteVar(b, 1, m.Text("signal B=1 i=1"))}
	iter2 := []sim.Op{sim.WaitGE(b, 1, m.Text("wait B>=1 i=2")), s1, sim.WriteVar(a, 1, m.Text("signal A=1 i=2"))}
	sp := &codegen.SyncProgram{
		Workload: w,
		Scheme:   "fabricated-cycle",
		Iters:    2,
		Machine:  m,
		At: func(dst []sim.Op, iter int64) []sim.Op {
			if iter == 1 {
				return append(dst, iter1...)
			}
			return append(dst, iter2...)
		},
	}
	rep := verify.Static(sp, verify.Options{})
	if rep.OK() {
		t.Fatalf("cyclic program verified clean:\n%s", rep)
	}
	var dl *verify.Finding
	for i := range rep.Findings {
		if rep.Findings[i].Class == verify.Deadlock {
			dl = &rep.Findings[i]
			break
		}
	}
	if dl == nil {
		t.Fatalf("no deadlock finding:\n%s", rep)
	}
	if len(dl.Cycle) == 0 {
		t.Fatalf("deadlock finding lacks a cycle certificate: %+v", dl)
	}
}

// TestStaticRedundantWaitNotes: the statement-oriented scheme's awaits are
// transitively implied by the advance chain on straight-line nests — the
// verifier should note the redundancy (validating the paper's covering
// elimination) without failing the program. A site is a placement, not an
// instance: stencil's advance waits differ only in their sequence number,
// so they make one site and one note.
func TestStaticRedundantWaitNotes(t *testing.T) {
	for _, c := range []struct {
		w     *codegen.Workload
		sites int // notes expected, 0 for any
	}{
		{workloads.Fig21(40, 4), 0},
		{workloads.Stencil(40, 4), 1},
	} {
		sp, err := codegen.ExtractSyncProgram(c.w, codegen.StatementOriented{})
		if err != nil {
			t.Fatal(err)
		}
		rep := verify.Static(sp, verify.Options{})
		if !rep.OK() {
			t.Fatalf("%s: statement scheme should verify clean:\n%s", c.w.Name, rep)
		}
		if len(rep.Notes) == 0 || c.sites > 0 && len(rep.Notes) != c.sites {
			t.Fatalf("%s: %d redundant-wait notes, want %d:\n%s", c.w.Name, len(rep.Notes), c.sites, rep)
		}
		for _, n := range rep.Notes {
			if n.Class != verify.RedundantWait {
				t.Errorf("%s: unexpected note class %s: %+v", c.w.Name, n.Class, n)
			}
			if c.sites > 0 && !strings.HasPrefix(n.Site, "advance:wait ") {
				t.Errorf("%s: note on site %q, want an advance:wait site", c.w.Name, n.Site)
			}
		}
	}
}

// TestStaticTruncation caps the window and checks the report says so.
func TestStaticTruncation(t *testing.T) {
	w := workloads.Recurrence(60, 3, 4)
	sp, err := codegen.ExtractSyncProgram(w, codegen.ProcessOriented{X: 4, Improved: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := verify.Static(sp, verify.Options{MaxIters: 20})
	if !rep.Truncated || rep.Analyzed != 20 {
		t.Fatalf("want truncated window of 20, got analyzed=%d truncated=%v", rep.Analyzed, rep.Truncated)
	}
	if !rep.OK() {
		t.Fatalf("truncated run should still verify:\n%s", rep)
	}
}

// TestStaticFindingOrder: a report lists its hard findings in ascending
// variable id, so verifying one program twice gives byte-identical JSON.
// With every wait dropped, fig21 under process-basic X=4 has findings on
// several variables, as does the statement scheme; their order used to
// follow map iteration, and a /verify body is cached, and kept by the
// cluster nodes that forward it, as bytes.
func TestStaticFindingOrder(t *testing.T) {
	dropWaits := dropOps(func(_ *sim.Machine, op sim.Op) bool { return op.Kind == sim.OpWait })
	for _, base := range []codegen.Scheme{codegen.ProcessOriented{X: 4}, codegen.StatementOriented{}} {
		sp, err := codegen.ExtractSyncProgram(workloads.Fig21(20, 1), breakScheme{Scheme: base, label: "drop-waits", rewrite: dropWaits})
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for i := 0; i < 30; i++ {
			rep := verify.Static(sp, verify.Options{})
			if len(rep.Findings) < 2 {
				t.Fatalf("%s: %d findings, want several:\n%s", sp.Scheme, len(rep.Findings), rep)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Fatalf("%s: call %d encodes differently:\n%s\nfirst call:\n%s", sp.Scheme, i, b, first)
			}
		}
	}
}
