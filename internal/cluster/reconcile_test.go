package cluster

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// TestFillReplicationBatchesPerSuccessor: fills that share a successor
// reach it in handoffBatch-sized /internal/handoff POSTs, not one POST per
// fill, and none is dropped.
func TestFillReplicationBatchesPerSuccessor(t *testing.T) {
	var posts atomic.Int64
	release := make(chan struct{})
	tc := startClusterWrapped(t, 2, Options{AntiEntropyInterval: -1}, service.Options{}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/internal/handoff" && posts.Add(1) == 1 {
				<-release // hold the first push until every fill is queued
			}
			h.ServeHTTP(w, r)
		})
	})

	// n0-owned keys all have n1 as their one successor on a 2-node ring.
	full := tc.nodes[0].full
	entries := syntheticEntries(t, func(k cache.Key) bool {
		return full.Owner(k).ID == "n0"
	}, handoffBatch)
	keys := make([]cache.Key, len(entries))
	for i, e := range entries {
		if err := tc.nodes[0].srv.ImportCacheEntry(e); err != nil {
			t.Fatal(err)
		}
		k, err := cache.ParseKey(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	for _, k := range keys {
		tc.nodes[0].onCacheFill(k)
	}
	close(release)

	// The sender counts a batch once its POST returns, after the receiver
	// has imported it: wait for the count, then check what landed.
	waitFor(t, 5*time.Second, func() bool {
		return tc.nodes[0].replicaPushes.Load() >= int64(len(keys))
	}, "every fill to be pushed")
	for _, k := range keys {
		if !tc.nodes[1].srv.CacheHas(k) {
			t.Fatalf("successor is missing pushed key %s", k)
		}
	}
	if p := posts.Load(); p > 2 {
		t.Errorf("%d fills took %d /internal/handoff POSTs, want at most 2", len(keys), p)
	}
	if drops, pushes := tc.nodes[0].replicaDrops.Load(), tc.nodes[0].replicaPushes.Load(); drops != 0 || pushes != int64(len(keys)) {
		t.Errorf("replicaDrops = %d, replicaPushes = %d; want 0 and %d", drops, pushes, len(keys))
	}
}
