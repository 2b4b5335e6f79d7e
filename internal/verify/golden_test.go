package verify_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/frontend"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// goldenScheme is one scheme configuration of the golden corpus; build
// returns a fresh instance (the instance-based scheme keeps per-run state).
type goldenScheme struct {
	name  string
	build func() codegen.Scheme
}

// goldenSchemes are process and process-basic at X in {1,2,3,4,8},
// statement with K in {0,1}, ref and instance.
func goldenSchemes() []goldenScheme {
	var out []goldenScheme
	for _, improved := range []bool{true, false} {
		for _, x := range []int{1, 2, 3, 4, 8} {
			name := fmt.Sprintf("process-x%d", x)
			if !improved {
				name = fmt.Sprintf("process-basic-x%d", x)
			}
			out = append(out, goldenScheme{name, func() codegen.Scheme { return codegen.ProcessOriented{X: x, Improved: improved} }})
		}
	}
	for _, k := range []int{0, 1} {
		out = append(out, goldenScheme{fmt.Sprintf("statement-k%d", k), func() codegen.Scheme { return codegen.StatementOriented{K: k} }})
	}
	out = append(out,
		goldenScheme{"ref", func() codegen.Scheme { return codegen.RefBased{} }},
		goldenScheme{"instance", func() codegen.Scheme { return codegen.NewInstanceBased() }})
	return out
}

// goldenCase is one verifier input of the golden corpus: a workload under a
// scheme, verified at analysis windows 0 (the default) and 7.
type goldenCase struct {
	name string
	w    *codegen.Workload
	sch  codegen.Scheme
}

// goldenGroup is a set of cases pinned by one digest.
type goldenGroup struct {
	name  string
	cases []goldenCase
}

// dropOps is a rewrite that removes every op drop selects.
func dropOps(drop func(*sim.Machine, sim.Op) bool) func(*sim.Machine, sim.Op) (sim.Op, bool) {
	return func(m *sim.Machine, op sim.Op) (sim.Op, bool) { return op, !drop(m, op) }
}

// goldenRewrites sabotage a scheme's program in bulk: without its waits,
// its writes or its PC transfers.
var goldenRewrites = []struct {
	label   string
	rewrite func(*sim.Machine, sim.Op) (sim.Op, bool)
}{
	{"drop-waits", dropOps(func(_ *sim.Machine, op sim.Op) bool { return op.Kind == sim.OpWait })},
	{"drop-writes", dropOps(func(_ *sim.Machine, op sim.Op) bool { return op.Kind == sim.OpWrite || op.Kind == sim.OpWriteIf })},
	{"drop-transfers", dropOps(func(m *sim.Machine, op sim.Op) bool { return strings.HasPrefix(m.Render(op.Tag), "transfer_PC") })},
}

// goldenCorpus lists the golden corpus by group: every built-in workload at
// several sizes, every .do testdata program and every accepted Go corpus
// loop under every golden scheme; the broken-scheme fixtures; and the
// bulk rewrites over a small workload set under every golden scheme.
func goldenCorpus(t testing.TB) []goldenGroup {
	var groups []goldenGroup
	add := func(group string, w *codegen.Workload) {
		g := goldenGroup{name: group}
		for _, s := range goldenSchemes() {
			g.cases = append(g.cases, goldenCase{s.name, w, s.build()})
		}
		groups = append(groups, g)
	}
	builtins := []struct {
		name  string
		build func(n int64) *codegen.Workload
		ns    []int64
	}{
		{"fig21", func(n int64) *codegen.Workload { return workloads.Fig21(n, 4) }, []int64{20, 40, 600}},
		{"nested", func(n int64) *codegen.Workload { return workloads.Nested(n, 8, 4) }, []int64{10, 20}},
		{"branchy", func(n int64) *codegen.Workload { return workloads.Branchy(n, 4) }, []int64{20, 40}},
		{"recurrence", func(n int64) *codegen.Workload { return workloads.Recurrence(n, 3, 4) }, []int64{20, 60}},
		{"stencil", func(n int64) *codegen.Workload { return workloads.Stencil(n, 4) }, []int64{8, 12}},
	}
	for _, b := range builtins {
		for _, n := range b.ns {
			add(fmt.Sprintf("builtin/%s/n%d", b.name, n), b.build(n))
		}
	}
	dos, err := filepath.Glob("../lang/testdata/*.do")
	if err != nil || len(dos) == 0 {
		t.Fatalf("testdata glob: %v (%d files)", err, len(dos))
	}
	for _, f := range dos {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		w, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add("do/"+filepath.Base(f), w)
	}
	gos, err := filepath.Glob("../../testdata/go/*.go")
	if err != nil || len(gos) == 0 {
		t.Fatalf("go corpus glob: %v (%d files)", err, len(gos))
	}
	for _, f := range gos {
		if strings.HasPrefix(filepath.Base(f), "reject_") {
			continue
		}
		res, err := frontend.LowerFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, lp := range res.Loops {
			add(fmt.Sprintf("go/%s/%d", filepath.Base(f), i), lp.Workload)
		}
	}
	broken := goldenGroup{name: "broken"}
	for _, bs := range brokenVariants() {
		broken.cases = append(broken.cases, goldenCase{bs.label, brokenWorkload(), bs})
	}
	groups = append(groups, broken)
	for _, rw := range goldenRewrites {
		for _, w := range append(vetWorkloads(), workloads.Fig21(20, 1)) {
			g := goldenGroup{name: fmt.Sprintf("%s/%s/n%d", rw.label, w.Name, w.Nest.Iterations())}
			for _, s := range goldenSchemes() {
				g.cases = append(g.cases, goldenCase{s.name, w, breakScheme{Scheme: s.build(), label: rw.label, rewrite: rw.rewrite}})
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// goldenWindows are the analysis windows every golden case is verified at.
var goldenWindows = []int64{0, 7}

// reportDigest is the sha256 of a report's JSON with its hard findings
// sorted by their own JSON text: before findings came out in ascending
// variable id, their order across variables followed map iteration.
func reportDigest(t testing.TB, rep *verify.Report) string {
	sorted := *rep
	sorted.Findings = append([]verify.Finding(nil), rep.Findings...)
	texts := make([]string, len(sorted.Findings))
	for i, f := range sorted.Findings {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		texts[i] = string(b)
	}
	sort.Sort(byText{sorted.Findings, texts})
	b, err := json.Marshal(&sorted)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

type byText struct {
	fs    []verify.Finding
	texts []string
}

func (s byText) Len() int           { return len(s.fs) }
func (s byText) Less(i, j int) bool { return s.texts[i] < s.texts[j] }
func (s byText) Swap(i, j int) {
	s.fs[i], s.fs[j] = s.fs[j], s.fs[i]
	s.texts[i], s.texts[j] = s.texts[j], s.texts[i]
}

// groupDigest verifies every case of g at every golden window and returns
// the sha256 over the lines "<case> <window> <report digest>", with the
// lines themselves for a failure message.
func groupDigest(t testing.TB, g goldenGroup) (string, []string) {
	var lines []string
	for _, c := range g.cases {
		sp, err := codegen.ExtractSyncProgram(c.w, c.sch)
		if err != nil {
			t.Fatalf("%s/%s: extract: %v", g.name, c.name, err)
		}
		for _, mx := range goldenWindows {
			rep := verify.Static(sp, verify.Options{MaxIters: mx})
			lines = append(lines, fmt.Sprintf("%s %d %s", c.name, mx, reportDigest(t, rep)))
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:]), lines
}

// TestStaticGolden pins every report of the golden corpus to the digest
// the map-based verifier produced, one digest per group. A mismatch logs
// the group's per-report digests.
func TestStaticGolden(t *testing.T) {
	groups := goldenCorpus(t)
	if len(groups) != len(staticGolden) {
		t.Errorf("%d golden groups but %d pinned digests", len(groups), len(staticGolden))
	}
	for _, g := range groups {
		got, lines := groupDigest(t, g)
		if want := staticGolden[g.name]; got != want {
			t.Errorf("%s: digest %s, want %s; reports:\n%s", g.name, got, want, strings.Join(lines, "\n"))
		}
	}
}

// staticGolden holds the group digests of the map-based verifier, with
// hard findings sorted by their JSON text.
var staticGolden = map[string]string{
	"builtin/fig21/n20":                   "046dc623de4fc1ef3b14a71073d930b72b7a6e19ada4f84d6c32d98f15d60fab",
	"builtin/fig21/n40":                   "23cf64dabc82f74432b33d496cecd287ad43e3a3488e52d29eccaf4c589b4245",
	"builtin/fig21/n600":                  "cd12c6751235ffea2098daa166af8708a4cebd106d31608ba76c1d079c8bcc8e",
	"builtin/nested/n10":                  "77d5f3249b9a7bba0dbb088efcad1c2c37daf1665f7d0e71e53d1e28277decea",
	"builtin/nested/n20":                  "ed11ad1b2151d12575d7580861da6cf65c1fad496eaeee95add9e6e9a6265578",
	"builtin/branchy/n20":                 "7239f2afa0ac54fe0e033ab8b1d664ebfcc18a04e18764d8afeb8f9525a27190",
	"builtin/branchy/n40":                 "a2348288baa181a94cbccc9a0d5cc8d89cdf0887271fbe660ca8cb714cfc298e",
	"builtin/recurrence/n20":              "d68a7004cacfbf7a16466289c9bc06b0c244136265c96e48cd16052dd1bfc436",
	"builtin/recurrence/n60":              "cf495d796e59d3ac09f647cf14c315dfeb717325b1f404cd11b1c8c5e3941847",
	"builtin/stencil/n8":                  "390a793dd42a30bb0f5d57a97db5660cd68c24905f6d4ac713f34636487287a9",
	"builtin/stencil/n12":                 "b398daadfe12123dfc97bb5a661eeeeddc50fc533b0fdfd6be5d9b0630f99bfc",
	"do/branchy.do":                       "250241c75ee2e8700bfd68ac0406f0e8f0b8fe27b2307fa9a498e652849afd0e",
	"do/fig21.do":                         "5b60ca50be70384fb768f1e5089974ea9b83075df0ccba03299538fb7dfc1c0e",
	"do/nested.do":                        "2f066a29ff86ddf9e462995a921fff8529e1930f50f8bf6ba0cfe4b840bf1412",
	"do/recurrence.do":                    "6784b256a2fca47a8535ec47494493e87517b4dbc1fe11881d2796a146221bc4",
	"do/stencil.do":                       "053e776b332e8f3d77a26842796677e1f09e8b686090ab5521a8fdecc2ceb325",
	"go/branchy.go/0":                     "250241c75ee2e8700bfd68ac0406f0e8f0b8fe27b2307fa9a498e652849afd0e",
	"go/compound.go/0":                    "441eefe29773c86337c5735ace7fd9115f1a154d04c58ad69186e6c4133c390f",
	"go/stencil.go/0":                     "b398daadfe12123dfc97bb5a661eeeeddc50fc533b0fdfd6be5d9b0630f99bfc",
	"go/strided.go/0":                     "d7c2e01c8d00a08397c15771dc21236fb6f3e8db0ef58ac6a9a6a494b017cc76",
	"go/twin_locals.go/0":                 "7daf211a86c10746788310164ba852ae613a4a59f55dfe2e9d5b9d70c9d130e1",
	"go/twin_nested.go/0":                 "2f066a29ff86ddf9e462995a921fff8529e1930f50f8bf6ba0cfe4b840bf1412",
	"broken":                              "d286b0a338af1f3b2f2067bbae901d20a69a585f0ce1bda801caa22ee59acaf7",
	"drop-waits/fig2.1/n40":               "1ce78bbb77cff9e979543e64319af278eab477c9ee65e22b4690e4d9d1bb32cc",
	"drop-waits/example2-nested/n80":      "1e6a60851fb66f2d704f64058091d368e2c11ee5169e46418e4fd3982a7bcf0f",
	"drop-waits/example3-branchy/n40":     "7c6aaf0b9da24811edfc1f40432cd057d6530cca44cf08916652631f2f169e43",
	"drop-waits/recurrence(d=3)/n60":      "43966c357f8ce35b68758fa1b8853f7296a0c3b6425190901a3f97d350d692fa",
	"drop-waits/stencil/n100":             "7d20cbcd28c84e4ab26efe39aecbf4675f4faad8a63b3961e38a8ec8ec5088d1",
	"drop-waits/fig2.1/n20":               "8451b9bdc55a7bd7f0aa995bad50e15165e4ca235aa65c511d2f65f189e329fe",
	"drop-writes/fig2.1/n40":              "fad5ac9736f4d0163faab238728bd132a1460511a6dacac1178b8d9aaa33274b",
	"drop-writes/example2-nested/n80":     "2102ee38838e97a517d94579da621eaa7f7279064ff105957492b2fff2bc5e08",
	"drop-writes/example3-branchy/n40":    "d6ca35580a35520c55337df6d1ec5f3455a78c3da3a6472b66ce459c45738f65",
	"drop-writes/recurrence(d=3)/n60":     "bfaec19347a001408c890eaecfe09e9194ccec9a4390ff77baf64fdb2eca645b",
	"drop-writes/stencil/n100":            "cdcd4138ab7a3c12f055540b3c840d849f9ba3ef2ad7c39ca754f6a2b3e5c31b",
	"drop-writes/fig2.1/n20":              "690f5569a9ee20e9d75ae73192d4d6f5188a5a7446e94545642e8df57ab6dc3c",
	"drop-transfers/fig2.1/n40":           "d4e7c1b6d6e550b8b5d8864cb8ea75e47bc3af08d50983537bb9ce5ee197e78f",
	"drop-transfers/example2-nested/n80":  "59b530df1de182dc8124b3ee4caacb8334116773318d3b68f3efae52943e9c7a",
	"drop-transfers/example3-branchy/n40": "175e2dc9775d3f6febebcc4803eedec10c32ebefca1a965ef06e3edb9cf7402e",
	"drop-transfers/recurrence(d=3)/n60":  "acab82f6a613d9080d11b561e221eff96bd75655c37083549913406db440d0d2",
	"drop-transfers/stencil/n100":         "a5f649f45e796f126ad4de6d8919596a3bf5cfe12c8b3188e188aa0b577f0087",
	"drop-transfers/fig2.1/n20":           "6f0a57597b567baa2d70e06ce689407e9ea03bf0b7f07bf87f505148f192a538",
}
