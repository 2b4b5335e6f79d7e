package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// startCountingCluster starts a 3-node cluster whose nodes count the
// peer-internal requests they receive, by path; counts returns a copy.
func startCountingCluster(t *testing.T, opts Options) (tc *testCluster, counts func() map[string]int) {
	t.Helper()
	var mu sync.Mutex
	internal := map[string]int{}
	tc = startClusterWrapped(t, 3, opts, service.Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/internal/") {
				mu.Lock()
				internal[r.URL.Path]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	return tc, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(internal)
	}
}

// TestFillsAreNotPushed: fresh fills stay where they were computed. A
// 36-point cluster sweep and a few /run misses, which fill the cache on
// every node, make no peer-internal request but the sweep's sub-grid
// dispatches: no fill is pushed and no copy is repaired.
func TestFillsAreNotPushed(t *testing.T) {
	tc, counts := startCountingCluster(t, Options{})

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

	for path, n := range counts() {
		if path != "/internal/sweep" {
			t.Errorf("%d %s requests after a sweep and three misses, want 0", n, path)
		}
	}
}

// TestDrainedKeysAreRecomputed: a departing node takes its cache with it.
// Its announcement demotes it on both peers, and each of its keys is
// recomputed by its next owner: the first answer is a miss with the
// departed owner's cycles, and the repeat is byte-identical to the
// departed owner's hit. The departure makes two peer-internal requests,
// its announcements, and nothing else: no /internal/handoff, which drain
// handoff, now gone, used to push the cache with.
func TestDrainedKeysAreRecomputed(t *testing.T) {
	tc, counts := startCountingCluster(t, Options{PeerToken: "s3cret"})

	full := tc.nodes[0].full
	var reqs []service.RunRequest
	var keys []cache.Key
	for n := int64(8); len(reqs) < 10 && n < 400; n += 4 {
		req := testRunReq
		req.Workload.N = n
		k, err := service.RunKey(req)
		if err != nil {
			continue
		}
		if full.Owner(k).ID == "n0" {
			reqs = append(reqs, req)
			keys = append(keys, k)
		}
	}
	if len(reqs) < 10 {
		t.Fatalf("found only %d keys owned by n0; enlarge the search range", len(reqs))
	}

	hits := make([][]byte, len(reqs))
	for i, req := range reqs {
		for pass := 0; pass < 2; pass++ {
			resp, body := postNode(t, tc.addrs[0], "/run", req, nil)
			if resp.StatusCode != http.StatusOK || cachedFlag(t, body) != (pass == 1) {
				t.Fatalf("N=%d pass %d on n0: %d %s", req.Workload.N, pass, resp.StatusCode, body)
			}
			hits[i] = body
		}
	}

	tc.nodes[0].Depart(context.Background())
	for _, i := range []int{1, 2} {
		if got := tc.nodes[i].PeerState("n0"); got != "demoted" {
			t.Errorf("%s holds n0 %q after its departure announcement, want demoted", tc.nodes[i].self.ID, got)
		}
	}

	rest, err := full.Without("n0")
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		next := rest.Owner(keys[i]).ID
		idx := -1
		for j, n := range tc.nodes {
			if n.self.ID == next {
				idx = j
			}
		}
		resp, first := postNode(t, tc.addrs[idx], "/run", req, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderNode) != next {
			t.Fatalf("N=%d at its next owner %s: %d served by %q %s", req.Workload.N, next, resp.StatusCode, resp.Header.Get(HeaderNode), first)
		}
		var got, want service.RunResponse
		if err := json.Unmarshal(first, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(hits[i], &want); err != nil {
			t.Fatal(err)
		}
		if got.Cached || got.Cycles != want.Cycles {
			t.Errorf("N=%d first answer at %s: cached %v, %d cycles; want a recomputation of n0's %d cycles",
				req.Workload.N, next, got.Cached, got.Cycles, want.Cycles)
		}
		if _, again := postNode(t, tc.addrs[idx], "/run", req, nil); !bytes.Equal(again, hits[i]) {
			t.Errorf("N=%d repeat at %s:\n%s\nn0's hit was\n%s", req.Workload.N, next, again, hits[i])
		}
	}

	if got, want := counts(), map[string]int{"/internal/departing": 2}; !maps.Equal(got, want) {
		t.Errorf("peer-internal requests %v, want %v", got, want)
	}
}
