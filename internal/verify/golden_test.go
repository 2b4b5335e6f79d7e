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
// the map-based verifier produced, one digest per group, except that the
// statement-scheme cases were re-pinned when wait sites began to fold the
// advance waits' sequence numbers. A mismatch logs the group's per-report
// digests.
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
// hard findings sorted by their JSON text. The 29 groups with a
// statement-k0 or statement-k1 report that folding "seq=N" out of wait
// sites changed were re-pinned; no line of another scheme moved.
var staticGolden = map[string]string{
	"builtin/fig21/n20":                   "fb1833f66be0ba18c9e0adbbc68c1ff8c26e9ea2ccce89b0ba78f3f8eaf735b8",
	"builtin/fig21/n40":                   "dc5702653c6873b1283e2312b08694223c18ec189623e63fed585a3648c3f5ca",
	"builtin/fig21/n600":                  "dde996683168b101eb71d46eb12134f86ac99fd5852cb3c09ee0ac406b6e9761",
	"builtin/nested/n10":                  "099fd4959ce06fb004c9939a68cfba768017404f88fa557c103439f75ad2afc4",
	"builtin/nested/n20":                  "55895bd63eda7e2c8023d0702edbba9a5753e35ecd7ee7eb4bee49cc9269c694",
	"builtin/branchy/n20":                 "d18a42ac9657b1103aac1aff46266d609592df19f32858357987c39887734820",
	"builtin/branchy/n40":                 "159b6611c51aba3e312ac1c028dce1d3916d255a2e7e2199ac36c9e125ba5e6d",
	"builtin/recurrence/n20":              "d68a7004cacfbf7a16466289c9bc06b0c244136265c96e48cd16052dd1bfc436",
	"builtin/recurrence/n60":              "cf495d796e59d3ac09f647cf14c315dfeb717325b1f404cd11b1c8c5e3941847",
	"builtin/stencil/n8":                  "c3680f6dd2320af0fdec82a779c321e75ed9934d29eee544a2c6f04458bdc531",
	"builtin/stencil/n12":                 "18178f1b4afb32b6a74093d3e9022823ad475fdc63c8114385ccd1e64900a766",
	"do/branchy.do":                       "06b6aa377af76834264c1cc50ea44011462ac34e08d0db67838790a43b30abfa",
	"do/fig21.do":                         "e1ffeb72b2aae0117cb5f37437ec2c7d548dcc7ba62f1d921bd989cdddada909",
	"do/nested.do":                        "2adc41448c56d2b5bf5ed8489c817902e7912c9320c323265032d4afb8e68509",
	"do/recurrence.do":                    "6784b256a2fca47a8535ec47494493e87517b4dbc1fe11881d2796a146221bc4",
	"do/stencil.do":                       "25168b12a0ee0eda63ae24b2a30696c08b5b8208584314b582175e17ed7e782c",
	"go/branchy.go/0":                     "06b6aa377af76834264c1cc50ea44011462ac34e08d0db67838790a43b30abfa",
	"go/compound.go/0":                    "6cc1cc41b6c46cd10ca53a073f8b694e5d54c38397ccd519ce87278d4839744f",
	"go/stencil.go/0":                     "18178f1b4afb32b6a74093d3e9022823ad475fdc63c8114385ccd1e64900a766",
	"go/strided.go/0":                     "2780aa9d2659c751d6dc3026f80729e54c25dccc4b3ff5306f9e9b0328ad3aaf",
	"go/twin_cond.go/0":                   "931ea06343c6e3106458c2690e1ef398b5e7cd228b9c15c5052eaf68f3f5d3d4",
	"go/twin_locals.go/0":                 "7daf211a86c10746788310164ba852ae613a4a59f55dfe2e9d5b9d70c9d130e1",
	"go/twin_nested.go/0":                 "2adc41448c56d2b5bf5ed8489c817902e7912c9320c323265032d4afb8e68509",
	"broken":                              "d286b0a338af1f3b2f2067bbae901d20a69a585f0ce1bda801caa22ee59acaf7",
	"drop-waits/fig2.1/n40":               "1ce78bbb77cff9e979543e64319af278eab477c9ee65e22b4690e4d9d1bb32cc",
	"drop-waits/example2-nested/n80":      "1e6a60851fb66f2d704f64058091d368e2c11ee5169e46418e4fd3982a7bcf0f",
	"drop-waits/example3-branchy/n40":     "7c6aaf0b9da24811edfc1f40432cd057d6530cca44cf08916652631f2f169e43",
	"drop-waits/recurrence(d=3)/n60":      "43966c357f8ce35b68758fa1b8853f7296a0c3b6425190901a3f97d350d692fa",
	"drop-waits/stencil/n100":             "7d20cbcd28c84e4ab26efe39aecbf4675f4faad8a63b3961e38a8ec8ec5088d1",
	"drop-waits/fig2.1/n20":               "8451b9bdc55a7bd7f0aa995bad50e15165e4ca235aa65c511d2f65f189e329fe",
	"drop-writes/fig2.1/n40":              "b298b118f4423769cb7238440e0f0598ea2edee79bb34e83595e4e1930ed264f",
	"drop-writes/example2-nested/n80":     "38355494dfdbae31a9f20e0a96f64ee554907d5ec873c41aef328f254b3c7f18",
	"drop-writes/example3-branchy/n40":    "8cf44e97e28ba257afae47d35f3a2d762a35bdf8508f38d247cd722199299887",
	"drop-writes/recurrence(d=3)/n60":     "10ed758aec8357272c5da1ab169102fcb74d25ead83c8b5207c47afd250aefc1",
	"drop-writes/stencil/n100":            "19c2f1d3179438259b2f34cffa26c12a901306ffb30eff4c0cf348918c433e69",
	"drop-writes/fig2.1/n20":              "82cf6d7cd594ddb2077d3ef6502c827f89ec14e83f85cccc1a8837f83cc8294c",
	"drop-transfers/fig2.1/n40":           "ade263bfbd05b297091b78457fe4730bcf238acc553769837978cc6a3e39f643",
	"drop-transfers/example2-nested/n80":  "f6881c5f424eb7139dbaed6fbf74ff0627ae15c4655dd7e2fb37622dfb4a33cb",
	"drop-transfers/example3-branchy/n40": "1218352041eb342b087f01a6e800cbbb32d89a1a8a9e8271e3f6bdb05aa5d5d5",
	"drop-transfers/recurrence(d=3)/n60":  "acab82f6a613d9080d11b561e221eff96bd75655c37083549913406db440d0d2",
	"drop-transfers/stencil/n100":         "1d4ac38856fb53f5bcced0fc9f5a112a2e578d2678c6f5e105196ca630c59ebf",
	"drop-transfers/fig2.1/n20":           "e955a2da4cec884a093dfc91497eb04923ae546894570af135138bb92ec45aee",
}
