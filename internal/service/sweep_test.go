package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestSweepEndpoint: a small X x P x busLatency grid over the Fig 2.1 loop
// answers with every point and a sane Pareto front.
func TestSweepEndpoint(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 4, QueueCap: 8})
	req := SweepRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   SchemeSpec{Name: "process"},
		Config:   ConfigSpec{},
		Grid: SweepGrid{
			X:          []int{2, 4, 8},
			P:          []int{2, 4},
			BusLatency: []int64{1, 4},
		},
	}
	resp, body := post(t, ts, "/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(sr.Points) != 12 {
		t.Fatalf("got %d points, want 12", len(sr.Points))
	}
	if sr.Failed != 0 || sr.Evaluated != 12 {
		t.Errorf("evaluated=%d failed=%d, want 12/0 (points: %+v)", sr.Evaluated, sr.Failed, sr.Points)
	}
	if len(sr.Pareto) == 0 {
		t.Fatal("empty Pareto front")
	}
	// The front must be sorted by cycles and strictly improving on traffic.
	for i := 1; i < len(sr.Pareto); i++ {
		if sr.Pareto[i].Cycles < sr.Pareto[i-1].Cycles {
			t.Errorf("front not sorted by cycles: %+v", sr.Pareto)
		}
		if sr.Pareto[i].SyncTraffic >= sr.Pareto[i-1].SyncTraffic {
			t.Errorf("front point %d not improving on traffic: %+v", i, sr.Pareto)
		}
	}
	// No front point may be dominated by any evaluated point.
	for _, f := range sr.Pareto {
		for _, p := range sr.Points {
			if p.Error != "" {
				continue
			}
			if p.Cycles <= f.Cycles && p.SyncTraffic <= f.SyncTraffic &&
				(p.Cycles < f.Cycles || p.SyncTraffic < f.SyncTraffic) {
				t.Errorf("front point %+v dominated by %+v", f, p)
			}
		}
	}
}

// TestSweepUsesCache: sweeping after /run on an overlapping point reuses
// the cached result; a repeated sweep is all cache hits.
func TestSweepUsesCache(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueCap: 8})
	req := SweepRequest{
		Workload: WorkloadSpec{Name: "recurrence", N: 24},
		Scheme:   SchemeSpec{Name: "process"},
		Grid:     SweepGrid{X: []int{2, 4}},
	}
	resp, body := post(t, ts, "/sweep", req)
	if resp.StatusCode != 200 {
		t.Fatalf("first sweep: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts, "/sweep", req)
	if resp.StatusCode != 200 {
		t.Fatalf("second sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	json.Unmarshal(body, &sr)
	if sr.CacheHits != len(sr.Points) {
		t.Errorf("repeat sweep: %d/%d cache hits, want all", sr.CacheHits, len(sr.Points))
	}
}

// TestSweepGridCap: an oversized grid is rejected up front.
func TestSweepGridCap(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	big := make([]int, 40)
	for i := range big {
		big[i] = i + 1
	}
	lats := make([]int64, 40)
	for i := range lats {
		lats[i] = int64(i + 1)
	}
	resp, body := post(t, ts, "/sweep", SweepRequest{
		Workload: WorkloadSpec{Name: "fig21"},
		Scheme:   SchemeSpec{Name: "process"},
		Grid:     SweepGrid{X: big, P: big, BusLatency: lats},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestParetoFront exercises the dominance logic directly.
func TestParetoFront(t *testing.T) {
	pts := []SweepPoint{
		{Cycles: 100, SyncTraffic: 50},
		{Cycles: 120, SyncTraffic: 30},
		{Cycles: 110, SyncTraffic: 60}, // dominated by (100,50)
		{Cycles: 100, SyncTraffic: 70}, // dominated by (100,50)
		{Cycles: 90, SyncTraffic: 90},
		{Cycles: 200, SyncTraffic: 10},
		{Cycles: 150, SyncTraffic: 30, Error: "x"}, // failed: excluded
	}
	front := ParetoFront(pts)
	want := [][2]int64{{90, 90}, {100, 50}, {120, 30}, {200, 10}}
	if len(front) != len(want) {
		t.Fatalf("front %+v, want %v", front, want)
	}
	for i, w := range want {
		if front[i].Cycles != w[0] || front[i].SyncTraffic != w[1] {
			t.Errorf("front[%d] = (%d,%d), want %v", i, front[i].Cycles, front[i].SyncTraffic, w)
		}
	}
}

// TestSweepGridCounterBound: a grid X above the counter bound is a 400 even
// when the base scheme is valid and an earlier point's bus-free run would
// cover it, and the server keeps serving.
func TestSweepGridCounterBound(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, QueueCap: 8})
	req := SweepRequest{
		Workload: WorkloadSpec{Source: "DO I = 1, 16\n  S1: A[I] = B[I] + 1\nEND DO\n"},
		Scheme:   SchemeSpec{Name: "process"},
		Grid:     SweepGrid{X: []int{2, 2 * maxCounters}},
	}
	if resp, body := post(t, ts, "/sweep", req); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("grid x %v: status %d, want 400 (%s)", req.Grid.X, resp.StatusCode, body)
	}
	req.Grid.X = []int{2, 4}
	if resp, body := post(t, ts, "/sweep", req); resp.StatusCode != http.StatusOK {
		t.Errorf("valid sweep after the rejection: status %d (%s)", resp.StatusCode, body)
	}
}
