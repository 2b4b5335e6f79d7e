package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// restart re-listens on node i's original address and serves its handler
// again, test wrappers and link switch included — the in-process analogue
// of restarting a crashed dsserve on the same host:port.
func (tc *testCluster) restart(t *testing.T, i int) {
	t.Helper()
	addr := strings.TrimPrefix(tc.addrs[i], "http://")
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	hs := &http.Server{Handler: tc.handlers[i]}
	go hs.Serve(ln)
	tc.servers[i] = hs
}

// quietNode builds a standalone Node (no HTTP listener) for state-machine
// tests; probing is off unless opts enables it.
func quietNode(t testing.TB, opts Options, members []Member) *Node {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts.Members = members
	opts.Logger = quiet
	n, err := New(opts, service.Options{Workers: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Stop()
		n.Server().Drain(context.Background())
	})
	return n
}

// TestClusterKillReplicaServeRestartRejoin is the acceptance scenario: a
// 3-node cluster loses a node and serves that node's key from the copy its
// successor kept from an earlier forward — byte-identical to the pre-kill
// cached response, no recompute — then the node comes back and rejoins the
// ring with no other process restarted.
func TestClusterKillReplicaServeRestartRejoin(t *testing.T) {
	tc := startCluster(t, 3, Options{
		PeerToken:      "s3cret",
		ProbeInterval:  25 * time.Millisecond,
		SuspectAfter:   2,
		RejoinAfter:    2,
		DemoteCooldown: -1, // probes drive every transition in this test
	})

	key, err := service.RunKey(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	full := tc.nodes[0].full
	owner := full.Owner(key)
	rest, err := full.Without(owner.ID)
	if err != nil {
		t.Fatal(err)
	}
	succ := rest.Owner(key) // the key's owner once the owner is demoted
	victimIdx, succIdx := -1, -1
	var survivors []int
	for i, n := range tc.nodes {
		switch n.self.ID {
		case owner.ID:
			victimIdx = i
		case succ.ID:
			succIdx = i
		}
		if n.self.ID != owner.ID {
			survivors = append(survivors, i)
		}
	}
	if victimIdx < 0 || succIdx < 0 {
		t.Fatalf("owner %s / successor %s not found among nodes", owner.ID, succ.ID)
	}

	// Fill the key on its owner, then fetch the canonical cached bytes.
	resp, body := postNode(t, tc.addrs[victimIdx], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill: %d %s", resp.StatusCode, body)
	}
	resp, cachedBody := postNode(t, tc.addrs[victimIdx], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached fetch: %d %s", resp.StatusCode, cachedBody)
	}
	var cached service.RunResponse
	if err := json.Unmarshal(cachedBody, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second fetch on the owner was not a cache hit")
	}

	// A request entering at the successor is forwarded to the owner, and
	// the successor keeps the owner's relayed hit.
	resp, body = postNode(t, tc.addrs[succIdx], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderNode) != owner.ID {
		t.Fatalf("forward through the successor: %d served by %q\n%s", resp.StatusCode, resp.Header.Get(HeaderNode), body)
	}
	if !tc.nodes[succIdx].Server().CacheHas(key) {
		t.Fatal("the successor did not keep the owner's relayed hit")
	}

	// Kill the owner; the survivors' probes demote it.
	tc.kill(victimIdx)
	for _, i := range survivors {
		i := i
		waitFor(t, 5*time.Second, func() bool {
			return tc.nodes[i].PeerState(owner.ID) == "demoted"
		}, fmt.Sprintf("%s demoting %s", tc.nodes[i].self.ID, owner.ID))
	}
	if live := tc.nodes[succIdx].Ring(); live.Owner(key).ID != succ.ID {
		t.Fatalf("post-demotion live owner = %s, want successor %s", live.Owner(key).ID, succ.ID)
	}

	// The successor serves the dead owner's key from the copy it kept:
	// same bytes, no recompute, replica-hit counted.
	beforeHits := tc.nodes[succIdx].replicaHits.Load()
	resp, replicaBody := postNode(t, tc.addrs[succIdx], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica serve: %d %s", resp.StatusCode, replicaBody)
	}
	if got := resp.Header.Get(HeaderNode); got != succ.ID {
		t.Errorf("replica response served by %q, want successor %s", got, succ.ID)
	}
	if !bytes.Equal(replicaBody, cachedBody) {
		t.Errorf("replica response bytes differ from the pre-kill cached response:\npre-kill: %s\nreplica:  %s", cachedBody, replicaBody)
	}
	if got := tc.nodes[succIdx].replicaHits.Load(); got != beforeHits+1 {
		t.Errorf("successor replicaHits = %d, want %d", got, beforeHits+1)
	}

	// Restart the victim on its original address: the survivors' probes
	// readmit it without any other process restarting.
	tc.restart(t, victimIdx)
	for _, i := range survivors {
		i := i
		waitFor(t, 5*time.Second, func() bool {
			return tc.nodes[i].PeerState(owner.ID) == "alive"
		}, fmt.Sprintf("%s readmitting %s", tc.nodes[i].self.ID, owner.ID))
	}
	for _, i := range survivors {
		if got := tc.nodes[i].Ring().Version(); got != full.Version() {
			t.Errorf("%s ring version %s after rejoin, want the full membership's %s",
				tc.nodes[i].self.ID, got, full.Version())
		}
		if rejoins, demotions := tc.nodes[i].rejoins.Load(), tc.nodes[i].demotions.Load(); rejoins < 1 || demotions < 1 {
			t.Errorf("%s rejoins=%d demotions=%d, want both >= 1", tc.nodes[i].self.ID, rejoins, demotions)
		}
	}

	// Forwards reach the restarted node again from the survivor that holds
	// no copy of the key; the successor, which holds one, answers it
	// itself, with the same bytes.
	edgeIdx := survivors[0]
	if edgeIdx == succIdx {
		edgeIdx = survivors[1]
	}
	if tc.nodes[edgeIdx].Server().CacheHas(key) {
		t.Fatalf("%s holds a copy of the key; no survivor is left to forward", tc.nodes[edgeIdx].self.ID)
	}
	resp, body = postNode(t, tc.addrs[edgeIdx], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rejoin fetch: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderNode); got != owner.ID {
		t.Errorf("post-rejoin request served by %q, want the restarted owner %s", got, owner.ID)
	}
	if !bytes.Equal(body, cachedBody) {
		t.Errorf("post-rejoin response bytes differ from the original cached response")
	}
	resp, body = postNode(t, tc.addrs[succIdx], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rejoin fetch at the successor: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderNode); got != succ.ID {
		t.Errorf("post-rejoin request at the successor served by %q, want the successor %s itself", got, succ.ID)
	}
	if !bytes.Equal(body, cachedBody) {
		t.Errorf("post-rejoin response bytes at the successor differ from the original cached response")
	}
}

// TestSweepAfterDrainMatchesOracle: once a node has announced its
// departure and left, taking its cache with it, the remaining members
// still merge a cluster sweep, recomputing the departed node's points, to
// the single-node oracle.
func TestSweepAfterDrainMatchesOracle(t *testing.T) {
	tc := startCluster(t, 3, Options{StealChunk: 2})
	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 48},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4, 8}, Chunk: []int64{1, 2}},
	}
	if resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain /sweep: %d %s", resp.StatusCode, body)
	}

	tc.nodes[0].Depart(context.Background())
	tc.kill(0)

	resp, body := postNode(t, tc.addrs[1], "/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain /sweep: %d %s", resp.StatusCode, body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Failed != 0 || got.Evaluated != 12 {
		t.Fatalf("post-drain sweep evaluated %d / failed %d of 12 points: %s", got.Evaluated, got.Failed, body)
	}
	requireSweepMatchesOracle(t, sweep, got)
}

// TestProbeStateMachine drives the suspect→confirm→rejoin transitions
// against a stub peer whose /healthz behaviour the test switches.
func TestProbeStateMachine(t *testing.T) {
	var identity sync.Map // "node" -> string served as the peer's identity
	identity.Store("node", "b")
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := identity.Load("node")
		json.NewEncoder(w).Encode(map[string]any{"node": id})
	}))
	defer stub.Close()

	members := []Member{{ID: "a", Addr: "http://127.0.0.1:1"}, {ID: "b", Addr: stub.URL}}
	n := quietNode(t, Options{Self: "a", SuspectAfter: 2, RejoinAfter: 2, DemoteCooldown: -1}, members)
	b := members[1]

	if got := n.PeerState("b"); got != "alive" {
		t.Fatalf("initial state %q, want alive", got)
	}

	// Identity mismatch is a probe failure: an address answering as the
	// wrong node must not keep the member alive.
	identity.Store("node", "imposter")
	n.probeOne(b)
	if got := n.PeerState("b"); got != "suspect" {
		t.Fatalf("after 1 failure: %q, want suspect", got)
	}
	if n.Ring().Size() != 2 {
		t.Fatal("suspicion alone changed the live ring")
	}
	n.probeOne(b)
	if got := n.PeerState("b"); got != "demoted" {
		t.Fatalf("after SuspectAfter failures: %q, want demoted", got)
	}
	if n.Ring().Size() != 1 {
		t.Fatal("demotion did not shrink the live ring")
	}

	// Recovery: RejoinAfter consecutive successes readmit.
	identity.Store("node", "b")
	n.probeOne(b)
	if got := n.PeerState("b"); got != "demoted" {
		t.Fatalf("one success readmitted early: %q", got)
	}
	n.probeOne(b)
	if got := n.PeerState("b"); got != "alive" {
		t.Fatalf("after RejoinAfter successes: %q, want alive", got)
	}
	if n.Ring().Size() != 2 {
		t.Fatal("readmission did not restore the live ring")
	}
	probes, failures := n.probes.Load(), n.probeFailures.Load()
	demotions, rejoins := n.demotions.Load(), n.rejoins.Load()
	if probes != 4 || failures != 2 || demotions != 1 || rejoins != 1 {
		t.Errorf("probes=%d failures=%d demotions=%d rejoins=%d, want 4, 2, 1, 1", probes, failures, demotions, rejoins)
	}

	// A suspect peer that recovers before confirmation resets cleanly.
	identity.Store("node", "nobody")
	n.probeOne(b)
	identity.Store("node", "b")
	n.probeOne(b)
	if got := n.PeerState("b"); got != "alive" {
		t.Fatalf("suspect that recovered: %q, want alive", got)
	}
}

// TestDemoteCooldownAndUnknownID: transport-cause demotions inside the
// readmit cooldown are suppressed (no ring flap), deliberate causes bypass
// it, and demoting an ID outside the membership is a counted no-op.
func TestDemoteCooldownAndUnknownID(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"node": "b"})
	}))
	defer stub.Close()

	members := []Member{{ID: "a", Addr: "http://127.0.0.1:1"}, {ID: "b", Addr: stub.URL}}
	n := quietNode(t, Options{Self: "a", RejoinAfter: 1, DemoteCooldown: time.Hour}, members)
	b := members[1]

	// First transport demotion (no prior readmit): not cooldown-gated.
	n.MarkDead("b")
	if got := n.PeerState("b"); got != "demoted" {
		t.Fatalf("first MarkDead: %q, want demoted", got)
	}

	// Readmit via a probe success, starting the cooldown window.
	n.probeOne(b)
	if got := n.PeerState("b"); got != "alive" {
		t.Fatalf("after readmit probe: %q, want alive", got)
	}

	// A transport error inside the window must not flap the ring.
	n.MarkDead("b")
	if got := n.PeerState("b"); got != "alive" {
		t.Fatalf("transport demotion inside cooldown: %q, want alive (suppressed)", got)
	}
	if got := n.demotions.Load(); got != 1 {
		t.Errorf("demotions = %d after suppressed flap, want 1", got)
	}

	// A drain announcement is authoritative and bypasses the cooldown.
	n.demote("b", causeDrain)
	if got := n.PeerState("b"); got != "demoted" {
		t.Fatalf("drain demotion inside cooldown: %q, want demoted", got)
	}

	// Unknown IDs: counted no-op, live ring untouched.
	before := n.Ring().Version()
	n.MarkDead("zebra")
	if got := n.Ring().Version(); got != before {
		t.Error("unknown-ID demotion changed the ring")
	}
	if got := n.unknownDemotions.Load(); got != 1 {
		t.Errorf("unknownDemotions = %d, want 1", got)
	}
	if got := n.PeerState("zebra"); got != "" {
		t.Errorf("PeerState(zebra) = %q, want empty", got)
	}
}

// TestGossipConvergesOnIntersection: a probed peer's healthz view demotes
// members it reports not-alive (never itself, never this node), and a
// differing ring version is counted as skew — the mechanism that converges
// two disagreeing nodes onto the intersection of their live sets.
func TestGossipConvergesOnIntersection(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"node":        "b",
			"ringVersion": "somewhere-else",
			"peers": []map[string]any{
				{"id": "a", "alive": false}, // self: must be ignored
				{"id": "b", "alive": false}, // the reporter: firsthand probe wins
				{"id": "c", "alive": false}, // absorbed
			},
		})
	}))
	defer stub.Close()

	members := []Member{
		{ID: "a", Addr: "http://127.0.0.1:1"},
		{ID: "b", Addr: stub.URL},
		{ID: "c", Addr: "http://127.0.0.1:2"},
	}
	n := quietNode(t, Options{Self: "a", DemoteCooldown: -1}, members)

	n.probeOne(members[1])
	if got := n.PeerState("b"); got != "alive" {
		t.Errorf("reporting peer = %q, want alive (its own probe succeeded)", got)
	}
	if got := n.PeerState("c"); got != "demoted" {
		t.Errorf("gossiped-dead peer = %q, want demoted", got)
	}
	if got := n.ringSkews.Load(); got < 1 {
		t.Errorf("ringSkews = %d, want >= 1 (versions differed)", got)
	}
	if n.Ring().Size() != 2 {
		t.Errorf("live ring size = %d, want 2 (a, b)", n.Ring().Size())
	}
}

// TestGossipDoesNotUndoFirsthandReadmission is the regression test for the
// rejoin flap behind an intermittent ring-version mismatch in
// TestClusterKillReplicaServeRestartRejoin. Two survivors of a restarted
// node readmit it on their own probes, one probe interval apart. The first
// then probed the second, read "not alive" from a view the second had not
// yet refreshed, and demoted the node again, so right after the second
// survivor's readmission the rings disagreed. A gossiped demotion must
// rest on evidence newer than this node's own: a report whose last failure
// to reach the member predates the start of this node's unbroken run of
// successful probes is stale, while a fresh failure still demotes (the
// intersection rule for asymmetric partitions).
func TestGossipDoesNotUndoFirsthandReadmission(t *testing.T) {
	var cUp atomic.Bool
	stubC := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "nobody" // a wrong identity is a failed probe
		if cUp.Load() {
			id = "c"
		}
		json.NewEncoder(w).Encode(map[string]any{"node": id})
	}))
	defer stubC.Close()
	var failedAgo atomic.Int64 // b's last failure to reach c, µs before its answer
	stubB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"node": "b",
			"peers": []map[string]any{
				{"id": "c", "alive": false, "unreachableAgoUs": failedAgo.Load()},
			},
		})
	}))
	defer stubB.Close()

	members := []Member{{ID: "a", Addr: "http://127.0.0.1:1"}, {ID: "b", Addr: stubB.URL}, {ID: "c", Addr: stubC.URL}}
	n := quietNode(t, Options{Self: "a", SuspectAfter: 2, RejoinAfter: 2, DemoteCooldown: -1}, members)
	b, c := members[1], members[2]

	// c goes down and a demotes it on its own probes; b, which also lost
	// c, last failed to reach it ten seconds before it came back.
	n.probeOne(c)
	n.probeOne(c)
	if got := n.PeerState("c"); got != "demoted" {
		t.Fatalf("c after SuspectAfter failed probes: %q, want demoted", got)
	}
	failedAgo.Store((10 * time.Second).Microseconds())
	cUp.Store(true)
	n.probeOne(c)
	n.probeOne(c)
	if got := n.PeerState("c"); got != "alive" {
		t.Fatalf("c after RejoinAfter successful probes: %q, want alive", got)
	}

	// b has not re-probed c yet: its stale view must not undo a's
	// firsthand readmission.
	n.probeOne(b)
	if got := n.PeerState("c"); got != "alive" {
		t.Fatalf("c after b's stale gossip: %q, want alive (a saw c answer after b last failed to reach it)", got)
	}
	if n.Ring().Size() != 3 {
		t.Fatalf("live ring size %d after stale gossip, want 3", n.Ring().Size())
	}

	// b failing to reach c now is fresh evidence: a demotes c, converging
	// on the intersection of the two live sets.
	failedAgo.Store(0)
	n.probeOne(b)
	if got := n.PeerState("c"); got != "demoted" {
		t.Errorf("c after b's fresh gossip: %q, want demoted", got)
	}
}

// TestHealthzDegradedOnMajorityDemoted: with more than half of the
// configured peers demoted, /healthz flips to 503 with a degraded marker
// so load balancers route away from a minority partition.
func TestHealthzDegradedOnMajorityDemoted(t *testing.T) {
	tc := startCluster(t, 3, Options{})

	get := func() (int, map[string]any) {
		resp, err := http.Get(tc.addrs[0] + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("healthz decode: %v (%s)", err, body)
		}
		return resp.StatusCode, m
	}

	if code, m := get(); code != http.StatusOK || m["status"] != "ok" {
		t.Fatalf("healthy node: %d %v, want 200 ok", code, m)
	}

	tc.nodes[0].demote("n1", causeProbe)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("1 of 2 peers demoted is not a majority: got %d, want 200", code)
	}

	tc.nodes[0].demote("n2", causeProbe)
	code, m := get()
	if code != http.StatusServiceUnavailable || m["status"] != "degraded" {
		t.Fatalf("majority demoted: %d %v, want 503 degraded", code, m)
	}
	if reason, _ := m["reason"].(string); reason == "" {
		t.Error("degraded healthz carries no reason")
	}

	resp, err := http.Get(tc.addrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "dsserve_degraded 1") {
		t.Error("metrics missing dsserve_degraded 1")
	}
}

// TestClusterMembershipRaces hammers the ring pointer from every direction
// the production paths do — demotions, probe outcomes swapping it back,
// lock-free readers — for the race detector.
func TestClusterMembershipRaces(t *testing.T) {
	members := []Member{
		{ID: "a", Addr: "http://127.0.0.1:1"},
		{ID: "b", Addr: "http://127.0.0.1:2"},
		{ID: "c", Addr: "http://127.0.0.1:3"},
	}
	n := quietNode(t, Options{Self: "a", DemoteCooldown: -1, RejoinAfter: 1}, members)

	key, err := service.RunKey(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range []string{"b", "c"} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n.MarkDead(id)
				n.observeProbe(id, true) // readmit (RejoinAfter 1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			r := n.Ring()
			r.Owner(key)
			n.healthInfo()
			n.degraded()
			n.metricsAppend(io.Discard)
		}
	}()
	wg.Wait()

	// Converge: both peers readmitted, full ring restored.
	n.observeProbe("b", true)
	n.observeProbe("c", true)
	if n.Ring().Size() != 3 {
		t.Errorf("final ring size %d, want 3", n.Ring().Size())
	}
}
