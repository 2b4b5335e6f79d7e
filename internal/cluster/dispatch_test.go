package cluster

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/csrd-repro/datasync/internal/service"
)

// TestClusterSweepSurvivesTruncatedPeerAnswer: a peer whose
// /internal/sweep answer loses its last byte has failed the dispatch. The
// coordinator counts a peer error, hands the sub-grid to a survivor, and
// still answers exactly what one node answers.
func TestClusterSweepSurvivesTruncatedPeerAnswer(t *testing.T) {
	var truncated atomic.Int64
	tc := startClusterWrapped(t, 3, Options{StealChunk: 2}, service.Options{}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/internal/sweep" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			maps.Copy(w.Header(), rec.Header())
			w.WriteHeader(rec.Code)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 {
				body = body[:len(body)-1]
				truncated.Add(1)
			}
			w.Write(body)
		})
	})

	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4}, Chunk: []int64{1, 2, 4}},
	}
	if owners := chainOwners(t, tc.nodes[0].Ring(), sweep); owners["n1"] == 0 {
		t.Fatalf("no chain placed on n1 (%v); change the test grid", owners)
	}
	resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep with a truncating peer: %d %s", resp.StatusCode, body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Failed != 0 || got.Evaluated != 12 {
		t.Fatalf("sweep evaluated %d / failed %d of 12 points: %s", got.Evaluated, got.Failed, body)
	}
	requireSweepMatchesOracle(t, sweep, got)

	if truncated.Load() < 1 {
		t.Fatal("n1 answered no sub-grid")
	}
	if peerErrs := tc.nodes[0].peerErrors.Load(); peerErrs < 1 {
		t.Errorf("peerErrors = %d, want >= 1 (the truncated answer must fail the dispatch)", peerErrs)
	}
}

// BenchmarkClusterSweep times one warm /sweep over sweep-3node's grid
// (X {2,4,8,16} x P {2,4,8} x busLatency {1,2,4}, 36 points) entered at
// one node of a 3-node cluster. Warm passes come first, so every point is a
// cache hit: it times planning, dispatch, the peers' answers and the
// merged answer, not the simulator. Allocations count every node's.
func BenchmarkClusterSweep(b *testing.B) {
	tc := startCluster(b, 3, Options{})
	body, err := json.Marshal(service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 90, Cost: 3},
		Scheme:   service.SchemeSpec{Name: "statement"},
		Grid:     service.SweepGrid{X: []int{2, 4, 8, 16}, P: []int{2, 4, 8}, BusLatency: []int64{1, 2, 4}},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := tc.handlers[0]
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"failed": 0,`)) {
			b.Fatalf("/sweep: %d %s", rec.Code, rec.Body)
		}
	}
	for range 3 { // fill, then until stolen sub-grids are held where they run
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(36*b.N), "ns/point")
}
