package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

const compileSrc = `package p

func kernel(a, b []int) {
	for i := 1; i < 30; i++ {
		a[i] = a[i-1] + i
		b[i] = a[i] * 2
	}
}
`

// TestCompileEndpoint: /compile lowers a canonical loop, reports its
// dependence graph and a measurement per scheme, verifies the verifiable
// schemes, and serves the identical repeat from cache.
func TestCompileEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	req := CompileRequest{Filename: "kernel.go", Source: compileSrc, Config: ConfigSpec{P: 4}}

	var first, second CompileResponse
	resp, body := post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &first)
	if first.Cached {
		t.Error("first request reported cached")
	}
	if len(first.Loops) != 1 || len(first.Rejected) != 0 {
		t.Fatalf("loops=%d rejected=%d, want 1 and 0: %s", len(first.Loops), len(first.Rejected), body)
	}
	lp := first.Loops[0]
	if lp.Workload != "kernel" || lp.Depth != 1 || lp.Iterations != 29 {
		t.Errorf("loop identity: %+v", lp)
	}
	if !strings.Contains(lp.Graph, "S1 -flow(1)-> S1") {
		t.Errorf("graph missing recurrence arc:\n%s", lp.Graph)
	}
	if len(lp.Schemes) != len(SchemeNames()) {
		t.Errorf("schemes = %d, want all %d", len(lp.Schemes), len(SchemeNames()))
	}
	for _, cs := range lp.Schemes {
		if cs.Scheme == "pipeline(X=8,G=1)" {
			if cs.Error == "" {
				t.Errorf("pipeline should refuse a depth-1 nest")
			}
			continue
		}
		if cs.Error != "" {
			t.Errorf("%s refused: %s", cs.Scheme, cs.Error)
			continue
		}
		if cs.VerifyOK == nil || !*cs.VerifyOK {
			t.Errorf("%s not statically verified: %+v", cs.Scheme, cs)
		}
		if cs.Cycles <= 0 || cs.SerialCycles <= 0 {
			t.Errorf("%s implausible measurement: %+v", cs.Scheme, cs)
		}
	}

	resp, body = post(t, ts, "/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &second)
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	if first.Key == "" || first.Key != second.Key {
		t.Errorf("keys diverge: %q vs %q", first.Key, second.Key)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "dsserve_cache_hits_total 1") {
		t.Errorf("metrics missing compile cache hit:\n%s", mbody)
	}
}

// TestCompileRejection: source with no lowerable loops is a 400 whose error
// field is the first positioned diagnostic, with the full rejection list
// attached.
func TestCompileRejection(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	src := "package p\n\nfunc f(a []int, n int) {\n\tfor i := 0; i < n; i++ {\n\t\ta[i] = i\n\t}\n}\n"
	resp, body := post(t, ts, "/compile", CompileRequest{Filename: "sym.go", Source: src})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
	}
	var out struct {
		Error string `json:"error"`
		CompileResponse
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.Contains(out.Error, "sym.go:4:") || !strings.Contains(out.Error, "symbolic-bound") {
		t.Errorf("error lacks position or reason code: %q", out.Error)
	}
	if len(out.Rejected) != 1 || out.Rejected[0].Code != "symbolic-bound" {
		t.Errorf("rejected list: %+v", out.Rejected)
	}
}

// TestCompileBadInputs: structural errors are 400 before any evaluation.
func TestCompileBadInputs(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  CompileRequest
	}{
		{"empty source", CompileRequest{}},
		{"unknown scheme", CompileRequest{Source: compileSrc, Schemes: []SchemeSpec{{Name: "nope"}}}},
		{"bad config", CompileRequest{Source: compileSrc, Config: ConfigSpec{P: -1}}},
		{"loop over the size limit", CompileRequest{Source: "package p\n\nfunc f(a []int) {\n\tfor i := 1; i <= 1<<40; i++ {\n\t\ta[i] = a[i-1] + 1\n\t}\n}\n"}},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/compile", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
	}
}

// TestCompileSourceHard: the gating predicate trips on rejections and on
// verification findings, and stays clean on a fully-lowered file even when
// one scheme refuses the shape.
func TestCompileSourceHard(t *testing.T) {
	clean, err := CompileSource("k.go", []byte(compileSrc), nil, ConfigSpec{P: 4})
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	if clean.Hard() {
		t.Errorf("clean outcome reported hard: %+v", clean)
	}
	rej, err := CompileSource("k.go", []byte("package p\nfunc f(a []float64) {\n\tfor i := 0; i < 5; i++ {\n\t\ta[i] = 1\n\t}\n}\n"), nil, ConfigSpec{})
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	if !rej.Hard() {
		t.Errorf("rejected outcome not hard: %+v", rej)
	}
}
