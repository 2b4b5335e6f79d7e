package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The grid of the collapse differential test: every X, P, chunk and bus
// latency value below, crossed.
var (
	collapseXs     = []int{1, 2, 3, 4, 6, 8, 12, 16, 32}
	collapsePs     = []int{1, 2, 3, 4, 8}
	collapseChunks = []int64{1, 3}
	collapseLats   = []int64{0, 1, 2, 4}
)

func quietServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer(Options{Workers: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

// perPointSweep is the reference a collapsing EvalSweep must reproduce:
// every point of req evaluated on its own through evalRun, in grid order.
func perPointSweep(t *testing.T, s *Server, req SweepRequest) *SweepResponse {
	t.Helper()
	wl, err := req.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	sels, err := expandPoints(req)
	if err != nil {
		t.Fatal(err)
	}
	resp := &SweepResponse{Workload: wl.Name}
	for _, sel := range sels {
		sspec, cspec := pointSpecs(req, sel)
		pt := sweepPoint(req, sel)
		rr, _, err := s.evalRun(context.Background(), wl, sspec, cspec.SimConfig())
		if err != nil {
			pt.Error = OneLine(err)
			resp.Failed++
		} else {
			pt.Scheme, pt.Cached, pt.Cycles = rr.Scheme, rr.Cached, rr.Cycles
			pt.SyncTraffic, pt.SyncOps, pt.Speedup = rr.BusTx+rr.Polls, rr.SyncOps, rr.Speedup
			resp.Evaluated++
		}
		resp.Points = append(resp.Points, pt)
	}
	resp.Pareto = ParetoFront(resp.Points)
	return resp
}

// sweepJSON renders a sweep response without its cache provenance. Which
// of several same-key points a fresh server finds in its cache depends on
// evaluation order, which concurrent evaluation leaves to scheduling; every
// other byte must match.
func sweepJSON(t *testing.T, r *SweepResponse) []byte {
	t.Helper()
	c := *r
	c.CacheHits = 0
	c.Points = slices.Clone(r.Points)
	c.Pareto = slices.Clone(r.Pareto)
	for _, pts := range [][]SweepPoint{c.Points, c.Pareto} {
		for i := range pts {
			pts[i].Cached = false
		}
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// collapseOutcomes reads the dsserve_sweep_points_total counters.
func collapseOutcomes(s *Server) map[string]int64 {
	out := make(map[string]int64)
	for o, name := range sweepOutcomeNames {
		s.metrics.mu.Lock()
		out[name] = s.metrics.sweepPoints[o]
		s.metrics.mu.Unlock()
	}
	return out
}

// TestSweepCollapseMatchesPerPointEvaluation is the differential oracle of
// the sweep planner: on fresh servers, a collapsing EvalSweep answers every
// point of the full X x P x chunk x busLatency grid exactly as evaluating
// each point on its own does, for every scheme on every built-in workload
// (workload sizes drawn from a fixed seed), and for the two X anomalies
// where a larger X is slower.
func TestSweepCollapseMatchesPerPointEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	grid := SweepGrid{X: collapseXs, P: collapsePs, Chunk: collapseChunks, BusLatency: collapseLats}
	var sweeps []SweepRequest
	for _, name := range WorkloadNames() {
		for _, scheme := range SchemeNames() {
			wl := WorkloadSpec{Name: name, N: 12 + rng.Int63n(60), Cost: 1 + rng.Int63n(6)}
			if name == "nested" || name == "stencil" {
				wl.N, wl.M = 4+rng.Int63n(8), 3+rng.Int63n(4)
			} else if scheme == "pipeline" {
				continue // needs a depth-2 nest
			}
			sweeps = append(sweeps, SweepRequest{Workload: wl, Scheme: SchemeSpec{Name: scheme}, Grid: grid})
		}
	}
	// Generated loops, where iteration lengths and dependence distances
	// vary more than in the built-ins, and the two witness counterexamples,
	// with and without write coverage.
	sources := []string{nonMultipleLoop, coveredReleaseLoop}
	for i := 0; i < 6; i++ {
		sources = append(sources, generatedLoop(rng))
	}
	for i, src := range sources {
		for _, scheme := range []string{"process", "process-basic"} {
			cfg := ConfigSpec{Coverage: i < 2 || i%2 == 0}
			sweeps = append(sweeps, SweepRequest{Workload: WorkloadSpec{Source: src}, Scheme: SchemeSpec{Name: scheme}, Config: cfg, Grid: grid})
			if i < 2 {
				cfg.Coverage = false
				sweeps = append(sweeps, SweepRequest{Workload: WorkloadSpec{Source: src}, Scheme: SchemeSpec{Name: scheme}, Config: cfg, Grid: grid})
			}
		}
	}
	// The X anomalies at N=90, cost 3, eight processors: fig21 is faster
	// at X=6 than at X=8, branchy at X=8 than at X=16.
	anomalies := []struct {
		workload   string
		fast, slow int
	}{{"fig21", 6, 8}, {"branchy", 8, 16}}
	for _, a := range anomalies {
		for _, scheme := range []string{"process", "process-basic"} {
			sweeps = append(sweeps, SweepRequest{
				Workload: WorkloadSpec{Name: a.workload, N: 90, Cost: 3},
				Scheme:   SchemeSpec{Name: scheme},
				Grid:     SweepGrid{X: collapseXs, P: []int{8}, Chunk: collapseChunks, BusLatency: collapseLats},
			})
		}
	}

	collapsed := 0
	for _, req := range sweeps {
		s := quietServer(t)
		got, err := s.EvalSweep(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want := perPointSweep(t, quietServer(t), req)
		if g, w := sweepJSON(t, got), sweepJSON(t, want); !bytes.Equal(g, w) {
			for i := range want.Points {
				if gp, wp := got.Points[i], want.Points[i]; gp.Cycles != wp.Cycles || gp.SyncTraffic != wp.SyncTraffic ||
					gp.SyncOps != wp.SyncOps || gp.Scheme != wp.Scheme || gp.Error != wp.Error {
					t.Errorf("%s/%s point %d:\n collapsed %+v\n per-point %+v", req.Workload.Name, req.Scheme.Name, i, gp, wp)
					break
				}
			}
			t.Fatalf("%s/%s: sweep differs from per-point evaluation", req.Workload.Name, req.Scheme.Name)
		}
		out := collapseOutcomes(s)
		if n := out["simulated"] + out["cached"] + out["collapsed"]; n != int64(got.Evaluated) {
			t.Errorf("%s/%s: outcome counters sum to %d for %d evaluated points (%v)", req.Workload.Name, req.Scheme.Name, n, got.Evaluated, out)
		}
		collapsed += int(out["collapsed"])
	}
	if collapsed == 0 {
		t.Error("no point of the grid collapsed")
	}

	// The anomalies survive the collapse: the slow X is not answered by the
	// fast one.
	for _, a := range anomalies {
		s := quietServer(t)
		req := SweepRequest{
			Workload: WorkloadSpec{Name: a.workload, N: 90, Cost: 3},
			Scheme:   SchemeSpec{Name: "process"},
			Config:   ConfigSpec{P: 8},
			Grid:     SweepGrid{X: []int{a.fast, a.slow}},
		}
		got, err := s.EvalSweep(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if fast, slow := got.Points[0].Cycles, got.Points[1].Cycles; fast >= slow {
			t.Errorf("%s: X=%d takes %d cycles, X=%d %d; the anomaly is gone", a.workload, a.fast, fast, a.slow, slow)
		}
	}
}

// nonMultipleLoop is a generated loop on which an ownership-prompt run
// does not answer a larger X that is not a multiple of its own: on four
// processors, chunk 3, with a zero-latency bus, X=3 is prompt and takes 148
// cycles, X=4 takes 163.
const nonMultipleLoop = `DO I = 1, 36
  S1: A[I-2] = C[I-2] + C[I+0] + 1  @2
  S2: C[I+3] = A[I+1] + B[I-3] + 2  @6
END DO
`

// coveredReleaseLoop is a generated loop on which an ownership check that
// passes only through the processor's own in-flight release must not count
// as prompt: with write coverage, on two processors and a bus latency of 4,
// X=2 and X=4 differ in cycles and broadcasts.
const coveredReleaseLoop = `DO I = 1, 32
  S1: C[I+0] = A[I-2] + A[I-2] + 1  @4
  IF ODD(I) THEN
    S2: A[I-3] = B[I-2] + A[I+2] + 2  @1
  ELSE
    S3: C[I-1] = B[I-2] + A[I+2] + 3  @5
  END IF
  S4: B[I-3] = C[I-3] + A[I+1] + 4  @2
END DO
`

// TestWitnessCounterexamples pins why the planner's two exclusions exist:
// the fixture runs above differ although a weaker witness would equate them.
func TestWitnessCounterexamples(t *testing.T) {
	s := quietServer(t)
	run := func(src string, x, p int, chunk, lat int64, coverage bool) RunResponse {
		t.Helper()
		wl, err := WorkloadSpec{Source: src}.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := ConfigSpec{P: p, Chunk: chunk, BusLatency: &lat, Coverage: coverage}
		rr, _, err := s.evalRun(context.Background(), wl, SchemeSpec{Name: "process", X: x}, cfg.SimConfig())
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	x3, x4 := run(nonMultipleLoop, 3, 4, 3, 0, false), run(nonMultipleLoop, 4, 4, 3, 0, false)
	if !x3.Stats.OwnershipPrompt || x3.Cycles == x4.Cycles {
		t.Errorf("non-multiple: X=3 prompt=%v %d cycles, X=4 %d cycles; want a prompt X=3 that differs from X=4",
			x3.Stats.OwnershipPrompt, x3.Cycles, x4.Cycles)
	}
	x2, x4 := run(coveredReleaseLoop, 2, 2, 1, 4, true), run(coveredReleaseLoop, 4, 2, 1, 4, true)
	if x2.Stats.OwnershipPrompt || x2.Cycles == x4.Cycles || x2.BusTx == x4.BusTx {
		t.Errorf("covered release: X=2 prompt=%v %d cycles %d broadcasts, X=4 %d cycles %d broadcasts; want an unprompt X=2 that differs from X=4",
			x2.Stats.OwnershipPrompt, x2.Cycles, x2.BusTx, x4.Cycles, x4.BusTx)
	}
}

// generatedLoop renders a random loop in the .do language: three to five
// statements over arrays A, B and C at constant offsets, with random
// costs, and in every other loop a parity branch around two of them.
func generatedLoop(rng *rand.Rand) string {
	arrays := []string{"A", "B", "C"}
	ref := func() string {
		return fmt.Sprintf("%s[I%+d]", arrays[rng.Intn(len(arrays))], rng.Intn(7)-3)
	}
	stmt := func(b *strings.Builder, indent string, n int) {
		fmt.Fprintf(b, "%sS%d: %s = %s + %s + %d  @%d\n", indent, n, ref(), ref(), ref(), n, 1+rng.Intn(6))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "DO I = 1, %d\n", 30+rng.Intn(50))
	n := 1
	stmt(&b, "  ", n)
	if rng.Intn(2) == 0 {
		b.WriteString("  IF ODD(I) THEN\n")
		n++
		stmt(&b, "    ", n)
		b.WriteString("  ELSE\n")
		n++
		stmt(&b, "    ", n)
		b.WriteString("  END IF\n")
	}
	for k := rng.Intn(3) + 1; k > 0; k-- {
		n++
		stmt(&b, "  ", n)
	}
	b.WriteString("END DO\n")
	return b.String()
}

// TestSweepChainsOrderAndGrouping: process schemes chain along X at fixed
// (P, chunk, G, busLatency); ref and instance along busLatency at fixed
// (P, chunk, G), ignoring X; the rest do not chain.
func TestSweepChainsOrderAndGrouping(t *testing.T) {
	grid := SweepGrid{X: []int{8, 0, 2}, P: []int{2, 4}, BusLatency: []int64{4, 1}}
	render := func(scheme string) string {
		req := SweepRequest{Workload: WorkloadSpec{Name: "fig21"}, Scheme: SchemeSpec{Name: scheme}, Grid: grid}
		sels, err := expandPoints(req)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range SweepChains(req, sels) {
			b.WriteString("[")
			for j, i := range c {
				if j > 0 {
					b.WriteString(" ")
				}
				sel := sels[i]
				fmt.Fprintf(&b, "%d/%d/%d", sel.X, sel.P, sel.BusLatency)
			}
			b.WriteString("]")
		}
		return b.String()
	}
	// X 0 is the default of 8 folded counters, so it sorts with X=8.
	if got, want := render("process"),
		"[2/2/4 8/2/4 0/2/4][2/2/1 8/2/1 0/2/1][2/4/4 8/4/4 0/4/4][2/4/1 8/4/1 0/4/1]"; got != want {
		t.Errorf("process chains\n got %s\nwant %s", got, want)
	}
	if got, want := render("ref"),
		"[8/2/1 0/2/1 2/2/1 8/2/4 0/2/4 2/2/4][8/4/1 0/4/1 2/4/1 8/4/4 0/4/4 2/4/4]"; got != want {
		t.Errorf("ref chains\n got %s\nwant %s", got, want)
	}
	if got := render("statement"); strings.Count(got, "[") != 12 || strings.Contains(got, " ") {
		t.Errorf("statement chains %s, want 12 single points", got)
	}
}

// TestSweepPointsMetric: /metrics reports every answered sweep point under
// exactly one of three outcomes, and a repeated sweep is all cache hits and
// collapses.
func TestSweepPointsMetric(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2, QueueCap: 8})
	req := SweepRequest{
		Workload: WorkloadSpec{Name: "recurrence", N: 24},
		Scheme:   SchemeSpec{Name: "ref"},
		Grid:     SweepGrid{X: []int{2, 4}, BusLatency: []int64{1, 2, 4}},
	}
	for round := 0; round < 2; round++ {
		if resp, body := post(t, ts, "/sweep", req); resp.StatusCode != 200 {
			t.Fatalf("sweep: %d %s", resp.StatusCode, body)
		}
	}
	// One simulation answers both sweeps: ref never touches the bus and
	// ignores X.
	want := map[string]int64{"simulated": 1, "cached": 1, "collapsed": 10}
	if got := collapseOutcomes(s); !maps.Equal(got, want) {
		t.Errorf("outcomes %v, want %v", got, want)
	}
	var lines []string
	for _, l := range strings.Split(getMetrics(t, ts.URL), "\n") {
		if strings.HasPrefix(l, "dsserve_sweep_points_total{") {
			lines = append(lines, l)
		}
	}
	wantLines := []string{
		`dsserve_sweep_points_total{outcome="simulated"} 1`,
		`dsserve_sweep_points_total{outcome="cached"} 1`,
		`dsserve_sweep_points_total{outcome="collapsed"} 10`,
	}
	if !slices.Equal(lines, wantLines) {
		t.Errorf("metrics lines %q, want %q", lines, wantLines)
	}
}
