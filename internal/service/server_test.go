package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
)

func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// TestRunAllPairs: the service answers /run for every workload x scheme
// pair (pipeline on its depth-2 workload), each checked for a sane payload.
func TestRunAllPairs(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 4})
	flat := []string{"process", "process-basic", "statement", "ref", "instance"}
	workloadSpecs := []WorkloadSpec{
		{Name: "fig21", N: 24},
		{Name: "nested", N: 6, M: 4},
		{Name: "branchy", N: 24},
		{Name: "recurrence", N: 24, D: 2},
		{Name: "stencil", N: 6},
	}
	for _, wspec := range workloadSpecs {
		for _, scheme := range flat {
			req := RunRequest{Workload: wspec, Scheme: SchemeSpec{Name: scheme, X: 4}, Config: ConfigSpec{P: 4}}
			resp, body := post(t, ts, "/run", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", wspec.Name, scheme, resp.StatusCode, body)
			}
			var rr RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatalf("%s/%s: decode: %v", wspec.Name, scheme, err)
			}
			if rr.Cycles <= 0 || rr.SerialCycles <= 0 || rr.Key == "" {
				t.Errorf("%s/%s: implausible result %+v", wspec.Name, scheme, rr)
			}
		}
	}
	// Pipeline needs a depth-2 nest.
	resp, body := post(t, ts, "/run", RunRequest{
		Workload: WorkloadSpec{Name: "nested", N: 6, M: 4},
		Scheme:   SchemeSpec{Name: "pipeline", X: 4, G: 2},
		Config:   ConfigSpec{P: 4},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nested/pipeline: status %d: %s", resp.StatusCode, body)
	}
}

// TestRunCacheHit: a repeated identical request is served from cache, the
// hit shows in the response and in /metrics, and the measurements match.
func TestRunCacheHit(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	req := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 30},
		Scheme: SchemeSpec{Name: "process", X: 4}, Config: ConfigSpec{P: 4}}

	var first, second RunResponse
	resp, body := post(t, ts, "/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("first: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &first)
	if first.Cached {
		t.Error("first request reported cached")
	}
	resp, body = post(t, ts, "/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("second: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &second)
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	if first.Key != second.Key || first.Cycles != second.Cycles || first.SyncOps != second.SyncOps {
		t.Errorf("cached result diverges: %+v vs %+v", first, second)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "dsserve_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit:\n%s", mbody)
	}
	if !strings.Contains(string(mbody), `dsserve_requests_total{route="/run",code="200"} 2`) {
		t.Errorf("metrics missing request counts:\n%s", mbody)
	}
	if !strings.Contains(string(mbody), "dsserve_job_latency_seconds_count") {
		t.Errorf("metrics missing job latency histogram:\n%s", mbody)
	}
}

// badRequests are /run and /verify bodies (a VerifyRequest goes to
// /verify) that every request path answers with a 400.
var badRequests = []struct {
	name string
	body any
}{
	{"verify window over the bound", VerifyRequest{Workload: WorkloadSpec{Name: "fig21", N: 20}, Scheme: SchemeSpec{Name: "process"}, MaxIters: maxVerifyIters + 1}},
	{"unknown scheme", RunRequest{Workload: WorkloadSpec{Name: "fig21"}, Scheme: SchemeSpec{Name: "quantum"}}},
	{"unknown workload", RunRequest{Workload: WorkloadSpec{Name: "nope"}, Scheme: SchemeSpec{Name: "ref"}}},
	{"bad config", RunRequest{Workload: WorkloadSpec{Name: "fig21"}, Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: -2}}},
	{"unparsable program", RunRequest{Workload: WorkloadSpec{Source: "DO I=1,N garbage"}, Scheme: SchemeSpec{Name: "ref"}}},
	{"unknown field", map[string]any{"workload": map[string]any{"name": "fig21"}, "shceme": map[string]any{}}},
	{"pipeline on depth-1", RunRequest{Workload: WorkloadSpec{Name: "fig21"}, Scheme: SchemeSpec{Name: "pipeline"}}},
	// Sizes past the makeslice limit: a worker that tried to build
	// them would panic at once rather than allocate.
	{"fig21 iterations over the size limit", RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 1 << 60}, Scheme: SchemeSpec{Name: "process"}}},
	{"stencil n squared over the size limit", RunRequest{Workload: WorkloadSpec{Name: "stencil", N: 1 << 32}, Scheme: SchemeSpec{Name: "process"}}},
	{"nested n*m past int64", RunRequest{Workload: WorkloadSpec{Name: "nested", N: 4, M: 1 << 62}, Scheme: SchemeSpec{Name: "process"}}},
	{"iterations over the size limit, no arrays", RunRequest{Workload: WorkloadSpec{Source: "DO I = 1, 70000\n  S1: T = I\nEND DO\n"}, Scheme: SchemeSpec{Name: "process"}}},
	{".do loop bound over the size limit", RunRequest{Workload: WorkloadSpec{Source: "DO I = 1, 1125899906842624\n  S1: A[I] = A[I-1] + 1\nEND DO\n"}, Scheme: SchemeSpec{Name: "process"}}},
	{".do subscript extent over the size limit", RunRequest{Workload: WorkloadSpec{Source: "DO I = 1, 2\n  S1: A[1125899906842624*I] = I\nEND DO\n"}, Scheme: SchemeSpec{Name: "process"}}},
	{"runtime stall fault", map[string]any{"workload": map[string]any{"name": "fig21"}, "scheme": map[string]any{"name": "ref"},
		"config": map[string]any{"fault": map[string]any{"stallIter": 1, "stallMillis": 5}}}},
}

// TestBadRequests: spec and config errors are 400 with a one-line error.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, tc := range badRequests {
		route := "/run"
		if _, ok := tc.body.(VerifyRequest); ok {
			route = "/verify"
		}
		resp, body := post(t, ts, route, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: bad error payload %s", tc.name, body)
		}
		if strings.Contains(er.Error, "\n") {
			t.Errorf("%s: error not one line: %q", tc.name, er.Error)
		}
	}
	ok := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 20}, Scheme: SchemeSpec{Name: "process"}}
	if resp, out := post(t, ts, "/run", ok); resp.StatusCode != http.StatusOK {
		t.Errorf("valid run after the rejections: status %d (%s)", resp.StatusCode, out)
	}
}

// TestCounterBoundsRejected: a negative or oversized counter budget is a
// 400, not a crash of the pool worker that would have instrumented it, and
// the server keeps serving.
func TestCounterBoundsRejected(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, scheme := range []map[string]any{
		{"name": "statement", "k": -1},
		{"name": "statement", "k": 1 << 30},
		{"name": "process", "x": 1 << 30},
		{"name": "pipeline", "x": maxCounters + 1},
	} {
		body := map[string]any{"workload": map[string]any{"name": "fig21", "n": 20}, "scheme": scheme}
		if resp, out := post(t, ts, "/run", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scheme %v: status %d, want 400 (%s)", scheme, resp.StatusCode, out)
		}
	}
	ok := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 20}, Scheme: SchemeSpec{Name: "statement", K: 1}}
	if resp, out := post(t, ts, "/run", ok); resp.StatusCode != http.StatusOK {
		t.Errorf("valid run after the rejections: status %d (%s)", resp.StatusCode, out)
	}
}

// TestVerifyEndpoint: /verify returns a clean static report for a correct
// pair, caches it, and rejects the pipeline scheme.
func TestVerifyEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	req := VerifyRequest{Workload: WorkloadSpec{Name: "fig21", N: 20},
		Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: 4}, Dynamic: true}

	resp, body := post(t, ts, "/verify", req)
	if resp.StatusCode != 200 {
		t.Fatalf("verify: %d %s", resp.StatusCode, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !vr.OK || vr.Static == nil || vr.Dynamic == nil {
		t.Errorf("verify result: %+v", vr)
	}
	if vr.Cached {
		t.Error("first verify reported cached")
	}
	resp, body = post(t, ts, "/verify", req)
	json.Unmarshal(body, &vr)
	if !vr.Cached {
		t.Error("second identical verify not cached")
	}

	resp, body = post(t, ts, "/verify", VerifyRequest{Workload: WorkloadSpec{Name: "nested"},
		Scheme: SchemeSpec{Name: "pipeline"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pipeline verify: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestBackpressure429: with one worker, no queue slack and a slow
// simulation, concurrent distinct requests must see 429 + Retry-After
// rather than queue growth.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1, QueueCap: 1})
	gate := make(chan struct{})
	var once sync.Once
	running := make(chan struct{})
	s.simRun = func(w *codegen.Workload, sch codegen.Scheme, cfg sim.Config) (codegen.Result, error) {
		once.Do(func() { close(running) })
		<-gate
		return codegen.Run(w, sch, cfg)
	}

	// Occupy the worker, then fill the queue, then overflow — distinct
	// requests (different N) so the cache cannot absorb them.
	results := make(chan int, 8)
	headers := make(chan string, 8)
	var wg sync.WaitGroup
	launch := func(n int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := post(t, ts, "/run", RunRequest{Workload: WorkloadSpec{Name: "fig21", N: n},
				Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: 2}})
			results <- resp.StatusCode
			headers <- resp.Header.Get("Retry-After")
		}()
	}
	launch(10)
	<-running  // worker busy
	launch(11) // queue slot
	// Give request 11 a moment to occupy the queue slot.
	time.Sleep(50 * time.Millisecond)
	launch(12) // must overflow
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(results)
	close(headers)

	var got429 bool
	for code := range results {
		if code == http.StatusTooManyRequests {
			got429 = true
		}
	}
	if !got429 {
		t.Fatal("no request observed 429 under a saturated queue")
	}
	var retryAfterSeen bool
	for h := range headers {
		if h != "" {
			retryAfterSeen = true
			if h != "1" {
				t.Errorf("Retry-After = %q, want \"1\"", h)
			}
		}
	}
	if !retryAfterSeen {
		t.Error("429 response missing Retry-After header")
	}
}

// TestSingleflightConcurrentIdentical: concurrent identical /run requests
// execute the simulation once; the others piggyback.
func TestSingleflightConcurrentIdentical(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 4, QueueCap: 16})
	var runs, once = 0, sync.Mutex{}
	inner := s.simRun
	s.simRun = func(w *codegen.Workload, sch codegen.Scheme, cfg sim.Config) (codegen.Result, error) {
		once.Lock()
		runs++
		once.Unlock()
		time.Sleep(20 * time.Millisecond) // widen the dedup window
		return inner(w, sch, cfg)
	}
	req := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 16},
		Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: 2}}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts, "/run", req)
			if resp.StatusCode != 200 {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	if runs != 1 {
		t.Errorf("simulation ran %d times for identical concurrent requests, want 1", runs)
	}
}

// TestHealthzAndDrain: healthz is 200 while serving and 503 once draining;
// draining finishes in-flight jobs.
func TestHealthzAndDrain(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: status %d, want 503", resp.StatusCode)
	}
	rresp, body := post(t, ts, "/run", RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 99},
		Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: 2}})
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining: status %d, want 503 (%s)", rresp.StatusCode, body)
	}
}

// TestDoSourceProgram: inline .do source runs and is content-addressed —
// the same program text from "different files" shares one cache entry.
func TestDoSourceProgram(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	src := "DO I = 1, 30\n  S1: A[I] = A[I-2] + 1\nEND DO\n"
	req := RunRequest{Workload: WorkloadSpec{Source: src}, Scheme: SchemeSpec{Name: "process", X: 4},
		Config: ConfigSpec{P: 4}}
	resp, body := post(t, ts, "/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("source run: %d %s", resp.StatusCode, body)
	}
	var first RunResponse
	json.Unmarshal(body, &first)
	resp, body = post(t, ts, "/run", req)
	var second RunResponse
	json.Unmarshal(body, &second)
	if !second.Cached || second.Key != first.Key {
		t.Errorf("identical source not cache-hit: %+v vs %+v", first, second)
	}
}

// TestRequestMetricRouteCardinality: unknown paths share one "other" series
// of dsserve_requests_total instead of adding a series each.
func TestRequestMetricRouteCardinality(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for i := 0; i < 100; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/probe-%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /probe-%d: %d, want 404", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var series []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "dsserve_requests_total{") {
			series = append(series, line)
		}
	}
	want := `dsserve_requests_total{route="other",code="404"} 100`
	if len(series) != 1 || series[0] != want {
		t.Errorf("request series after 100 unknown paths = %q, want [%q]", series, want)
	}
}

// metricValue returns the value of the exposition line starting with
// series, or -1 when there is none.
func metricValue(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	return -1
}

// TestRequestDurationHistogram: every served request adds one observation
// to its route's duration histogram — a cache hit included — and paths
// outside the routed set land only in the "other" series.
func TestRequestDurationHistogram(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	req := RunRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 16},
		Scheme:   SchemeSpec{Name: "process", X: 4},
		Config:   ConfigSpec{P: 4},
	}
	if resp, body := post(t, ts, "/run", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("fill: %d %s", resp.StatusCode, body)
	}
	const count = `dsserve_request_duration_seconds_count{route="/run"}`
	if got := metricValue(t, ts, count); got != 1 {
		t.Fatalf("%s = %v after the fill, want 1", count, got)
	}
	if resp, body := post(t, ts, "/run", req); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"cached": true`) {
		t.Fatalf("second /run is not a hit: %d %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, count); got != 2 {
		t.Errorf("%s = %v after one hit, want 2", count, got)
	}
	// The hit is far below the top bucket: its +Inf and 5s buckets agree.
	if inf, top := metricValue(t, ts, `dsserve_request_duration_seconds_bucket{route="/run",le="+Inf"}`),
		metricValue(t, ts, `dsserve_request_duration_seconds_bucket{route="/run",le="5"}`); inf != 2 || top != 2 {
		t.Errorf("/run +Inf bucket %v, 5s bucket %v, want 2 and 2", inf, top)
	}

	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/probe-%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for r := range labelValues(t, ts, "dsserve_request_duration_seconds_count{route=") {
		switch r {
		case `"/run"`, `"/metrics"`, `"other"`:
		default:
			t.Errorf("unexpected request duration series for route %s", r)
		}
	}
	if got := metricValue(t, ts, `dsserve_request_duration_seconds_count{route="other"}`); got != 5 {
		t.Errorf("other route observations = %v, want 5", got)
	}
}

// labelValues returns the quoted label values of the exposition lines that
// start with prefix, a series name with its opening label.
func labelValues(t *testing.T, ts *httptest.Server, prefix string) map[string]bool {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	values := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			values[strings.SplitN(rest, "}", 2)[0]] = true
		}
	}
	return values
}

// TestJobLatencySchemeCardinality: the job latency histogram is labelled by
// the request's built-in scheme name, not by the built scheme's name, which
// embeds the client's X. Forty values of X add one series, not forty.
func TestJobLatencySchemeCardinality(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	for x := 1; x <= 40; x++ {
		req := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 16},
			Scheme: SchemeSpec{Name: "process", X: x}, Config: ConfigSpec{P: 4}}
		if resp, body := post(t, ts, "/run", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("X=%d: %d %s", x, resp.StatusCode, body)
		}
	}
	const prefix = "dsserve_job_latency_seconds_count{scheme="
	got := labelValues(t, ts, prefix)
	if len(got) != 1 || !got[`"process"`] {
		t.Errorf("job latency series after 40 values of X: %v, want only \"process\"", got)
	}
	if n := metricValue(t, ts, prefix+`"process"}`); n != 40 {
		t.Errorf("process job observations = %v, want 40", n)
	}
}
