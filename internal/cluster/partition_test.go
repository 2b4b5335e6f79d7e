package cluster

// Partition-tolerance tests: a partition cut and healed through the test
// cluster's link switch (demotion, oracle-identical sweeps on both sides,
// readmission, no member bounced after the heal), sweeps across skewed
// ring views, bounded peer-internal bodies, probe jitter and
// asymmetric-partition gossip.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
)

func getMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepAcrossSkewedViews: an executor whose live view disagrees with
// the coordinator's evaluates its sub-grids anyway. Every point is
// deterministic, so the sweep answers on its one plan, with no failed
// point, exactly what one node answers; the skewed executor stays in the
// coordinator's ring and counts no peer error.
func TestSweepAcrossSkewedViews(t *testing.T) {
	var executed atomic.Int64
	tc := startClusterWrapped(t, 3, Options{StealChunk: 2}, service.Options{}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h.ServeHTTP(sw, r)
			if r.URL.Path == "/internal/sweep" && sw.code == http.StatusOK {
				executed.Add(1)
			}
		})
	})

	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4}, Chunk: []int64{1, 2, 4}},
	}
	// Every member, the skewed executor included, must be handed a chain.
	if owners := chainOwners(t, tc.nodes[0].Ring(), sweep); len(owners) != 3 {
		t.Fatalf("grid's chains placed on %d of 3 members (%v); enlarge the test grid", len(owners), owners)
	}

	// Skew the views: the executor n1 has demoted n2, the coordinator n0
	// still holds the full ring. No probes run, so nothing converges the
	// views behind the test's back.
	tc.nodes[1].demote("n2", causeDrain)

	resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep across skewed views: %d %s", resp.StatusCode, body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Failed != 0 || got.Evaluated != 12 {
		t.Fatalf("sweep evaluated %d / failed %d of 12 points: %s", got.Evaluated, got.Failed, body)
	}
	requireSweepMatchesOracle(t, sweep, got)

	// Skew is not peer death: the executor stays in the coordinator's ring.
	if !tc.nodes[0].Ring().Has("n1") {
		t.Error("coordinator demoted the skewed executor")
	}
	if peerErrs := tc.nodes[0].peerErrors.Load(); peerErrs != 0 {
		t.Errorf("peerErrors = %d across skewed views, want 0", peerErrs)
	}
	if executed.Load() < 1 {
		t.Error("the skewed executor n1 evaluated no sub-grid")
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestInternalBodyBounds413: peer-internal ingestion endpoints refuse
// oversized bodies with 413 instead of buffering them. /internal/handoff,
// the drain's cache transfer, is gone: an authenticated post to it is a
// 404.
func TestInternalBodyBounds413(t *testing.T) {
	tc := startCluster(t, 2, Options{})
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, tc.addrs[0]+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderForwarded, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	big := bytes.Repeat([]byte("x"), service.MaxBody+1024)
	if resp := post("/internal/departing", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized departure: %d, want 413", resp.StatusCode)
	}
	if resp := post("/internal/sweep", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized sweep sub-grid: %d, want 413", resp.StatusCode)
	}
	if resp := post("/internal/handoff", []byte("dsho\x01")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/internal/handoff: %d, want 404", resp.StatusCode)
	}
}

// TestProbeJitterBounds: jittered probe intervals stay within ±10% of the
// configured base, across the rand01 extremes and a sampled distribution.
func TestProbeJitterBounds(t *testing.T) {
	base := time.Second
	if got := probeJitter(base, func() float64 { return 0 }); got != 900*time.Millisecond {
		t.Errorf("jitter at rand01=0: %v, want 900ms", got)
	}
	if got := probeJitter(base, func() float64 { return 0.5 }); got != time.Second {
		t.Errorf("jitter at rand01=0.5: %v, want 1s", got)
	}
	hi := probeJitter(base, func() float64 { return 0.999999 })
	if hi < 1099*time.Millisecond || hi >= 1100*time.Millisecond {
		t.Errorf("jitter at rand01~1: %v, want just under 1.1s", hi)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := probeJitter(250*time.Millisecond, rng.Float64)
		if d < 225*time.Millisecond || d >= 275*time.Millisecond {
			t.Fatalf("sample %d: jitter %v outside [225ms, 275ms)", i, d)
		}
	}
}

// TestPartitionMinoritySweepsAndHeals: n2 is cut off from n0 and n1 in
// both directions, then the cut heals. While it holds, both sides demote
// across the cut, and a sweep through either side, the minority n2 alone
// included, equals the single-node oracle. After the heal both sides
// readmit each other and a sweep through the healed minority equals the
// oracle.
func TestPartitionMinoritySweepsAndHeals(t *testing.T) {
	tc := startCluster(t, 3, Options{
		ProbeInterval:  25 * time.Millisecond,
		SuspectAfter:   2,
		RejoinAfter:    2,
		DemoteCooldown: -1,
	})
	split := func(cut bool) {
		for _, id := range []string{"n0", "n1"} {
			tc.links.set(id, "n2", cut)
			tc.links.set("n2", id, cut)
		}
	}
	acrossCut := func(state string) bool {
		return tc.nodes[0].PeerState("n2") == state && tc.nodes[1].PeerState("n2") == state &&
			tc.nodes[2].PeerState("n0") == state && tc.nodes[2].PeerState("n1") == state
	}
	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 48},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4}, Chunk: []int64{1, 2}},
	}
	sweepVia := func(i int) service.SweepResponse {
		t.Helper()
		resp, body := postNode(t, tc.addrs[i], "/sweep", sweep, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/sweep via n%d: %d %s", i, resp.StatusCode, body)
		}
		var got service.SweepResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	split(true)
	waitFor(t, 5*time.Second, func() bool { return acrossCut("demoted") },
		"both sides to demote across the cut")

	requireSweepMatchesOracle(t, sweep, sweepVia(2))
	requireSweepMatchesOracle(t, sweep, sweepVia(0))

	split(false)
	waitFor(t, 5*time.Second, func() bool { return acrossCut("alive") },
		"both sides to readmit each other after the heal")
	requireSweepMatchesOracle(t, sweep, sweepVia(2))
}

// TestHealedPartitionDoesNotBounceAMember: n2 is cut off from n0 and n1,
// then the cut heals. Once every node holds every peer alive, no node
// demotes anyone for 20 probe intervals. A node that demotes a member on
// gossip reports, with the member, when the reporter last failed to reach
// it; without that age, a peer that had already readmitted the member
// could not tell the report was stale, and n1 and n2 demoted n0 back and
// forth between them for about two seconds after the heal.
func TestHealedPartitionDoesNotBounceAMember(t *testing.T) {
	const interval = 25 * time.Millisecond
	tc := startCluster(t, 3, Options{
		ProbeInterval:  interval,
		SuspectAfter:   2,
		RejoinAfter:    2,
		DemoteCooldown: -1,
	})
	split := func(cut bool) {
		for _, id := range []string{"n0", "n1"} {
			tc.links.set(id, "n2", cut)
			tc.links.set("n2", id, cut)
		}
	}
	all := func(state string) bool {
		for i, n := range tc.nodes {
			for j := range tc.nodes {
				if i != j && n.PeerState(fmt.Sprintf("n%d", j)) != state {
					return false
				}
			}
		}
		return true
	}
	demotions := func() (sum int64) {
		for _, n := range tc.nodes {
			sum += n.demotions.Load()
		}
		return sum
	}

	split(true)
	waitFor(t, 5*time.Second, func() bool {
		return tc.nodes[0].PeerState("n2") == "demoted" && tc.nodes[1].PeerState("n2") == "demoted" &&
			tc.nodes[2].PeerState("n0") == "demoted" && tc.nodes[2].PeerState("n1") == "demoted"
	}, "both sides to demote across the cut")
	split(false)
	waitFor(t, 5*time.Second, func() bool { return all("alive") }, "every node to hold every peer alive after the heal")
	before := demotions()
	for deadline := time.Now().Add(20 * interval); time.Now().Before(deadline); time.Sleep(interval / 5) {
		for i, n := range tc.nodes {
			if i != 0 && n.PeerState("n0") == "demoted" {
				t.Fatalf("n%d demoted n0 again after the heal", i)
			}
		}
	}
	if after := demotions(); after != before {
		t.Fatalf("%d demotions in the 20 probe intervals after every node readmitted every peer, want 0", after-before)
	}
}

// TestGossipAsymmetricPartition: n0 and n2 cannot reach n1, but n1 reaches
// both (an asymmetric link failure). The reachable majority converges on
// the same live set (without n1); n1 keeps its full view, and requests
// through n1 still complete in one forwarded hop — no forward loop. Once
// the links heal, n0 and n2 readmit n1 and all three views agree again.
func TestGossipAsymmetricPartition(t *testing.T) {
	tc := startCluster(t, 3, Options{
		ProbeInterval:  25 * time.Millisecond,
		SuspectAfter:   2,
		RejoinAfter:    2,
		DemoteCooldown: -1,
	})
	tc.links.set("n0", "n1", true)
	tc.links.set("n2", "n1", true)

	waitFor(t, 5*time.Second, func() bool {
		return tc.nodes[0].PeerState("n1") == "demoted" && tc.nodes[2].PeerState("n1") == "demoted"
	}, "n0 and n2 to demote unreachable n1")

	v0, v2 := tc.nodes[0].Ring().Version(), tc.nodes[2].Ring().Version()
	if v0 != v2 {
		t.Fatalf("majority ring versions diverge: n0=%s n2=%s", v0, v2)
	}
	if v1 := tc.nodes[1].Ring().Version(); v1 == v0 {
		t.Fatal("n1 (which reaches everyone) should still hold the full ring")
	}
	if tc.nodes[1].PeerState("n0") != "alive" || tc.nodes[1].PeerState("n2") != "alive" {
		t.Errorf("n1 peer states = %s/%s, want alive/alive (its outbound probes succeed)",
			tc.nodes[1].PeerState("n0"), tc.nodes[1].PeerState("n2"))
	}

	// A request through the isolated side must still complete: n1 forwards
	// to the owner per its full view, and the receiver serves it locally
	// (forwarded requests never re-forward), so no loop can form even
	// though the owner considers n1 dead.
	req := testRunReq
	for i := int64(24); ; i += 2 {
		req.Workload.N = i
		k, err := service.RunKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if tc.nodes[1].full.Owner(k).ID != "n1" {
			break
		}
	}
	resp, body := postNode(t, tc.addrs[1], "/run", req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run through isolated n1: %d %s", resp.StatusCode, body)
	}

	tc.links.set("n0", "n1", false)
	tc.links.set("n2", "n1", false)
	waitFor(t, 5*time.Second, func() bool {
		return tc.nodes[0].PeerState("n1") == "alive" && tc.nodes[2].PeerState("n1") == "alive"
	}, "n0 and n2 to readmit n1 after the heal")
	for _, n := range tc.nodes {
		if got, want := n.Ring().Version(), n.full.Version(); got != want {
			t.Errorf("%s live ring %s after the heal, want the full ring %s", n.self.ID, got, want)
		}
	}
}
