package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// runHitAllocCeiling bounds the allocations of one /run cache hit through a
// node's full handler stack: tenant admission, the router's prepare step,
// the service handler and the stored hit body, plus the test's own request
// and recorder. Before requests were prepared once and hits served stored
// bytes, the same hit took 211 allocations (the router decoded, built and
// keyed the body, the handler did all three again and re-encoded the
// cached response); before the server memoized each body's key, 88 (one
// decode, build and canon hash per hit). The ceiling is the measured count
// plus 10%.
const runHitAllocCeiling = 37 // 34 measured

// TestRunHitAllocations: a /run hit through a cluster.Node handler stays
// within runHitAllocCeiling allocations and answers with the hit body.
func TestRunHitAllocations(t *testing.T) {
	n := quietNode(t, Options{Self: "solo"}, nil)
	h := n.Handler()
	body, err := json.Marshal(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		t.Fatalf("fill: %d %s", rec.Code, rec.Body)
	}
	hit := serve()
	if hit.Code != http.StatusOK || !bytes.Contains(hit.Body.Bytes(), []byte(`"cached": true`)) {
		t.Fatalf("second request is not a hit: %d %s", hit.Code, hit.Body)
	}
	allocs := testing.AllocsPerRun(200, func() { serve() })
	t.Logf("one /run hit: %.0f allocations", allocs)
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	if allocs > runHitAllocCeiling {
		t.Errorf("one /run hit allocates %.0f times, ceiling %d", allocs, runHitAllocCeiling)
	}
}
