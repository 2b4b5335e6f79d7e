package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
)

// TestFillsAreNotPushed: fresh fills stay where they were computed. A
// 36-point cluster sweep and a few /run misses, which fill the cache on
// every node, make no /internal/handoff and no /internal/has request: the
// only peer-internal traffic left is the drain's.
func TestFillsAreNotPushed(t *testing.T) {
	var mu sync.Mutex
	internal := map[string]int{}
	tc := startClusterWrapped(t, 3, Options{}, service.Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/internal/") {
				mu.Lock()
				internal[r.URL.Path]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})

	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 48},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4, 8}, P: []int{2, 4, 8}, Chunk: []int64{1, 2, 3, 4}},
	}
	resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep: %d %s", resp.StatusCode, body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 36 || got.Failed != 0 {
		t.Fatalf("/sweep answered %d points with %d failed, want 36 and 0", len(got.Points), got.Failed)
	}
	for i := range 3 {
		req := testRunReq
		req.Workload.N = 30 + 2*int64(i)
		resp, body := postNode(t, tc.addrs[i], "/run", req, nil)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"cached": false`) {
			t.Fatalf("/run miss via n%d: %d %s", i, resp.StatusCode, body)
		}
	}
	// A push would follow its fill asynchronously: give one the time to
	// arrive before counting.
	time.Sleep(200 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	for _, path := range []string{"/internal/handoff", "/internal/has"} {
		if n := internal[path]; n != 0 {
			t.Errorf("%d %s requests after a sweep and three misses, want 0", n, path)
		}
	}
}
