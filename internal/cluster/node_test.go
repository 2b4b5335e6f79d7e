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
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/service"
)

// testCluster is N in-process nodes listening on real TCP ports, so peer
// forwarding exercises the same HTTP path production uses.
type testCluster struct {
	nodes    []*Node
	addrs    []string
	servers  []*http.Server
	handlers []http.Handler // what node i serves, test wrappers included
	links    linkSwitch
}

// linkSwitch cuts directed peer links inside a test cluster. Every peer
// exchange (forwards, sweep dispatches, probes, gossip, departure
// announcements) names its sender in HeaderNode, so the receiving node can tell
// which link a request crossed. A request over a cut link has its
// connection closed before any answer: the sender sees a transport error,
// as it would across a real partition. Requests without a sender (the
// test's own) are never cut.
type linkSwitch struct {
	mu  sync.Mutex
	cut map[[2]string]bool // {src, dst}
}

// set cuts (cut=true) or heals the link src->dst.
func (s *linkSwitch) set(src, dst string, cut bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cut == nil {
		s.cut = make(map[[2]string]bool)
	}
	s.cut[[2]string{src, dst}] = cut
}

func (s *linkSwitch) isCut(src, dst string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cut[[2]string{src, dst}]
}

// wrap puts node self's handler behind the switch.
func (s *linkSwitch) wrap(self string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.isCut(r.Header.Get(HeaderNode), self) {
			h.ServeHTTP(w, r)
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
	})
}

func startCluster(t testing.TB, size int, opts Options) *testCluster {
	t.Helper()
	return startClusterWrapped(t, size, opts, service.Options{}, nil)
}

// startClusterWrapped is startCluster with each node's service options
// (their Logger replaced by a silent one) and node i's handler wrapped by
// wrap (when non-nil), so a test can observe or hold peer traffic. Every
// node serves behind the cluster's link switch (tc.links), outside wrap.
func startClusterWrapped(t testing.TB, size int, opts Options, srvOpts service.Options, wrap func(i int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	tc := &testCluster{}
	listeners := make([]net.Listener, size)
	members := make([]Member, size)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addr := "http://" + ln.Addr().String()
		tc.addrs = append(tc.addrs, addr)
		members[i] = Member{ID: fmt.Sprintf("n%d", i), Addr: addr}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srvOpts.Logger = quiet
	for i, ln := range listeners {
		o := opts
		o.Self = members[i].ID
		o.Members = members
		o.Logger = quiet
		if o.PeerAttempts == 0 {
			o.PeerAttempts = 2
		}
		if o.PeerBaseDelay == 0 {
			o.PeerBaseDelay = 5 * time.Millisecond
		}
		node, err := New(o, srvOpts)
		if err != nil {
			t.Fatal(err)
		}
		h := node.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		h = tc.links.wrap(members[i].ID, h)
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		tc.nodes = append(tc.nodes, node)
		tc.servers = append(tc.servers, hs)
		tc.handlers = append(tc.handlers, h)
	}
	t.Cleanup(func() {
		for i := range tc.servers {
			tc.kill(i)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, n := range tc.nodes {
			n.Stop()
			n.Server().Drain(ctx)
		}
	})
	return tc
}

// kill hard-stops node i's HTTP server (listener and live connections).
func (tc *testCluster) kill(i int) {
	if tc.servers[i] != nil {
		tc.servers[i].Close()
		tc.servers[i] = nil
	}
}

func postNode(t *testing.T, addr, path string, body any, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, ok := body.([]byte) // posted as it is
	if !ok {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, addr+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// requireSweepMatchesOracle fails the test unless the cluster's merged
// sweep equals a fresh single-node server's answer point for point and
// front for front, ignoring only cache provenance.
func requireSweepMatchesOracle(t *testing.T, sweep service.SweepRequest, got service.SweepResponse) {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	oracleSrv := service.NewServer(service.Options{Workers: 4, Logger: quiet})
	defer oracleSrv.Drain(context.Background())
	oracle, err := oracleSrv.EvalSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(oracle.Points) || len(got.Pareto) != len(oracle.Pareto) {
		t.Fatalf("cluster %d points / %d Pareto, oracle %d / %d",
			len(got.Points), len(got.Pareto), len(oracle.Points), len(oracle.Pareto))
	}
	for i := range oracle.Points {
		a, c := oracle.Points[i], got.Points[i]
		a.Cached, c.Cached = false, false
		if a != c {
			t.Errorf("point %d: oracle %+v vs cluster %+v", i, a, c)
		}
	}
	for i := range oracle.Pareto {
		a, c := oracle.Pareto[i], got.Pareto[i]
		a.Cached, c.Cached = false, false
		if a != c {
			t.Errorf("Pareto point %d: oracle %+v vs cluster %+v", i, a, c)
		}
	}
}

var testRunReq = service.RunRequest{
	Workload: service.WorkloadSpec{Name: "fig21", N: 24},
	Scheme:   service.SchemeSpec{Name: "process", X: 4},
	Config:   service.ConfigSpec{P: 4},
}

// TestClusterForwardAndCrossNodeCacheHit: any node accepts the request, the
// key's owner serves it (visible in X-DSServe-Node), and a repeat through a
// different node hits the owner's cache — the cluster behaves as one
// logical content-addressed cache.
func TestClusterForwardAndCrossNodeCacheHit(t *testing.T) {
	tc := startCluster(t, 3, Options{})

	key, err := service.RunKey(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.nodes[0].Ring().Owner(key)

	// Pick two distinct edge nodes that do not own the key.
	var edges []int
	for i, n := range tc.nodes {
		if n.self.ID != owner.ID {
			edges = append(edges, i)
		}
	}
	if len(edges) < 2 {
		t.Fatalf("want 2 non-owner nodes in a 3-node ring, got %d", len(edges))
	}

	resp, body := postNode(t, tc.addrs[edges[0]], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first /run via %s: %d %s", tc.nodes[edges[0]].self.ID, resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderNode); got != owner.ID {
		t.Errorf("first run served by %q, ring owner is %q", got, owner.ID)
	}
	var first service.RunResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Key != key.String() {
		t.Errorf("served key %s, routed by %s", first.Key, key)
	}
	if first.Cached {
		t.Error("first evaluation reported cached")
	}

	resp, body = postNode(t, tc.addrs[edges[1]], "/run", testRunReq, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second /run via %s: %d %s", tc.nodes[edges[1]].self.ID, resp.StatusCode, body)
	}
	var second service.RunResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat through a different node missed the cluster cache")
	}
	if second.Key != first.Key || second.Cycles != first.Cycles {
		t.Errorf("cross-node answers diverge: %+v vs %+v", first, second)
	}

	for _, i := range edges {
		if fwd := tc.nodes[i].forwards.Load(); fwd != 1 {
			t.Errorf("edge node %s forwards = %d, want 1", tc.nodes[i].self.ID, fwd)
		}
	}
	ownerNode := tc.nodes[0]
	for _, n := range tc.nodes {
		if n.self.ID == owner.ID {
			ownerNode = n
		}
	}
	if fwd := ownerNode.forwards.Load(); fwd != 0 {
		t.Errorf("owner forwarded its own key %d times", fwd)
	}
}

// TestClusterPeerAuth: the forwarded flag is a trusted-channel marker; with
// a peer token configured, presenting the flag without the token is
// rejected before any handler runs, so users cannot spoof their way past
// tenant admission or routing.
func TestClusterPeerAuth(t *testing.T) {
	tc := startCluster(t, 1, Options{PeerToken: "s3cret"})

	resp, _ := postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{HeaderForwarded: "1"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("forged forwarded flag: %d, want 403", resp.StatusCode)
	}
	resp, body := postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{
		HeaderForwarded: "1",
		HeaderPeerToken: "s3cret",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated peer request: %d %s", resp.StatusCode, body)
	}
}

// TestClusterSweepHealsAroundDeadNode: a 3-node sweep with one member dead
// must mark it dead, steal its sub-grids onto the survivors, and still
// produce exactly the single-node answer — never a hang, never a lost point.
func TestClusterSweepHealsAroundDeadNode(t *testing.T) {
	tc := startCluster(t, 3, Options{StealChunk: 2})

	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4}, Chunk: []int64{1, 2, 4}},
	}
	if owners := chainOwners(t, tc.nodes[0].Ring(), sweep); len(owners) != 3 {
		t.Fatalf("grid's chains placed on %d of 3 members (%v); enlarge the test grid", len(owners), owners)
	}

	// Kill node 2 before the sweep: its sub-grids must be dispatched, fail,
	// and be re-dispatched to the survivors.
	tc.kill(2)
	deadID := tc.nodes[2].self.ID

	resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/sweep with a dead member: %d %s", resp.StatusCode, body)
	}
	var got service.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Failed != 0 || got.Evaluated != 12 {
		t.Fatalf("sweep evaluated %d / failed %d of 12 points: %s", got.Evaluated, got.Failed, body)
	}

	requireSweepMatchesOracle(t, sweep, got)

	if tc.nodes[0].Ring().Has(deadID) {
		t.Error("dead member still in the coordinator's ring view")
	}
	steals, peerErrs := tc.nodes[0].steals.Load(), tc.nodes[0].peerErrors.Load()
	if peerErrs < 1 {
		t.Errorf("peerErrors = %d, want >= 1 (the dead node's dispatch must have failed)", peerErrs)
	}
	if steals < 1 {
		t.Errorf("steals = %d, want >= 1 (the dead node's sub-grids must have been stolen)", steals)
	}
}

// TestClusterForwardClientCancelKeepsPeerAlive: a caller that disconnects
// (or times out client-side) while its request is being forwarded says
// nothing about the peer's health — the peer must stay in the ring and no
// peer error be counted, or one impatient client would permanently shrink
// the edge node's ring view.
func TestClusterForwardClientCancelKeepsPeerAlive(t *testing.T) {
	// Long peer backoff so the caller can cancel while the forward is
	// still mid-retry against an unreachable owner.
	tc := startCluster(t, 2, Options{PeerAttempts: 3, PeerBaseDelay: 300 * time.Millisecond})

	key, err := service.RunKey(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := tc.nodes[0].Ring().Owner(key)
	edge := 0
	if tc.nodes[edge].self.ID == owner.ID {
		edge = 1
	}
	tc.kill(1 - edge)

	b, err := json.Marshal(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tc.addrs[edge]+"/run", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("canceled request unexpectedly succeeded client-side")
	}

	// Let the server-side handler observe the cancellation and unwind.
	time.Sleep(500 * time.Millisecond)
	if !tc.nodes[edge].Ring().Has(owner.ID) {
		t.Errorf("caller cancellation mid-forward marked peer %s dead", owner.ID)
	}
	if peerErrs := tc.nodes[edge].peerErrors.Load(); peerErrs != 0 {
		t.Errorf("peerErrors = %d after caller cancellation, want 0", peerErrs)
	}
}

// TestClusterSweepWeightedAdmission: a sweep is charged by its expanded
// size — one token per StealChunk-sized sub-grid — so a large grid cannot
// ride through per-tenant admission at the price of a single /run.
func TestClusterSweepWeightedAdmission(t *testing.T) {
	// Burst 6 at a negligible refill rate: a sweep expanding to 12 points
	// with StealChunk 2 costs 6 tokens, draining the bucket — a flat
	// per-request charge would have left 5 behind.
	tc := startCluster(t, 1, Options{
		Tenant:     TenantPolicy{Rate: 0.001, Burst: 6},
		StealChunk: 2,
	})

	sweep := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 4}, Chunk: []int64{1, 2, 4}},
	}
	resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, map[string]string{HeaderTenant: "hot"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep within budget: %d %s", resp.StatusCode, body)
	}
	resp, _ = postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{HeaderTenant: "hot"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/run after a 12-point sweep: %d, want 429 (sweeps must be charged by size)", resp.StatusCode)
	}
	// The sweep's work debt is the hot tenant's problem alone.
	resp, body = postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{HeaderTenant: "cool"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cool tenant after hot tenant's sweep: %d %s", resp.StatusCode, body)
	}
}

// TestClusterNoTokenWarning: a multi-node cluster without a peer token
// silently loses forwarded-flag authentication, so construction must say
// so; single-node and token-configured clusters must not cry wolf.
func TestClusterNoTokenWarning(t *testing.T) {
	members := []Member{
		{ID: "a", Addr: "http://127.0.0.1:1"},
		{ID: "b", Addr: "http://127.0.0.1:2"},
	}
	build := func(opts Options) string {
		var buf bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&buf, nil))
		opts.Logger = logger
		node, err := New(opts, service.Options{Workers: 1, Logger: logger})
		if err != nil {
			t.Fatal(err)
		}
		node.Server().Drain(context.Background())
		return buf.String()
	}

	if logs := build(Options{Self: "a", Members: members}); !strings.Contains(logs, "peer token") {
		t.Errorf("multi-node cluster without a peer token did not warn: %q", logs)
	}
	if logs := build(Options{Self: "a", Members: members, PeerToken: "s3cret"}); strings.Contains(logs, "peer token") {
		t.Errorf("token-configured cluster warned anyway: %q", logs)
	}
	if logs := build(Options{Self: "solo"}); strings.Contains(logs, "peer token") {
		t.Errorf("single-node cluster warned about peer tokens: %q", logs)
	}
}

// TestClusterTenantShed: a hot tenant exhausting its bucket gets 429s with
// Retry-After while other tenants keep working.
func TestClusterTenantShed(t *testing.T) {
	tc := startCluster(t, 1, Options{Tenant: TenantPolicy{Rate: 0.001, Burst: 1}})

	resp, body := postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{HeaderTenant: "hot"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first hot request: %d %s", resp.StatusCode, body)
	}
	resp, _ = postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{HeaderTenant: "hot"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot tenant over budget: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("shed response Retry-After = %q, want a positive whole-second value", ra)
	}
	resp, body = postNode(t, tc.addrs[0], "/run", testRunReq, map[string]string{HeaderTenant: "cool"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cool tenant during hot shed: %d %s", resp.StatusCode, body)
	}

	metricsResp, err := http.Get(tc.addrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if !strings.Contains(string(metrics), `dsserve_tenant_shed_total{tenant="hot"} 1`) {
		t.Errorf("metrics missing the hot tenant's shed counter:\n%s", metrics)
	}
}

// TestClusterTenantStallsIsolated: one tenant's stall runs are ordinary
// 400s that name the deadlock, and they leave another tenant alone: its
// cached key answers with the same bytes as before them and its fresh key
// is computed.
func TestClusterTenantStallsIsolated(t *testing.T) {
	tc := startCluster(t, 1, Options{Tenant: TenantPolicy{Rate: 1000, Burst: 100}})
	addr := tc.addrs[0]
	tenantA := map[string]string{HeaderTenant: "a"}
	tenantB := map[string]string{HeaderTenant: "b"}

	if resp, body := postNode(t, addr, "/run", testRunReq, tenantB); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b fill: %d %s", resp.StatusCode, body)
	}
	resp, before := postNode(t, addr, "/run", testRunReq, tenantB)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(before, []byte(`"cached": true`)) {
		t.Fatalf("tenant b repeat is not a hit: %d %s", resp.StatusCode, before)
	}

	// Total broadcast drop starves every cross-iteration wait; distinct N
	// keeps the cache out of it.
	for n := int64(20); n < 25; n++ {
		stall := service.RunRequest{
			Workload: service.WorkloadSpec{Name: "recurrence", N: n, D: 2},
			Scheme:   service.SchemeSpec{Name: "process", X: 4},
			Config:   service.ConfigSpec{P: 4, Fault: &fault.Plan{Seed: 1, DropProb: 1}},
		}
		resp, body := postNode(t, addr, "/run", stall, tenantA)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("deadlock")) {
			t.Fatalf("tenant a stall N=%d: %d %s, want 400 naming the deadlock", n, resp.StatusCode, body)
		}
	}

	resp, after := postNode(t, addr, "/run", testRunReq, tenantB)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b cached key after the stalls: %d %s", resp.StatusCode, after)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("tenant b hit body changed across the stalls:\nbefore %s\nafter  %s", before, after)
	}
	fresh := testRunReq
	fresh.Workload.N = 25
	if resp, body := postNode(t, addr, "/run", fresh, tenantB); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b fresh key after the stalls: %d %s", resp.StatusCode, body)
	}
}

// TestClusterHealthz: every node's /healthz reports its identity and the
// cluster view — node ID, ring version, and per-peer liveness.
func TestClusterHealthz(t *testing.T) {
	tc := startCluster(t, 3, Options{})

	for i, n := range tc.nodes {
		resp, err := http.Get(tc.addrs[i] + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var hz struct {
			Node        string `json:"node"`
			RingVersion string `json:"ringVersion"`
			RingMembers int    `json:"ringMembers"`
			Peers       []struct {
				ID    string `json:"id"`
				Addr  string `json:"addr"`
				Alive bool   `json:"alive"`
			} `json:"peers"`
		}
		if err := json.Unmarshal(body, &hz); err != nil {
			t.Fatalf("healthz decode: %v (%s)", err, body)
		}
		if hz.Node != n.self.ID {
			t.Errorf("node %d healthz reports identity %q, want %q", i, hz.Node, n.self.ID)
		}
		if hz.RingVersion != tc.nodes[0].Ring().Version() {
			t.Errorf("node %d ring version %q diverges from node 0", i, hz.RingVersion)
		}
		if hz.RingMembers != 3 || len(hz.Peers) != 3 {
			t.Errorf("node %d sees %d members / %d peers, want 3/3", i, hz.RingMembers, len(hz.Peers))
		}
		for _, p := range hz.Peers {
			if !p.Alive {
				t.Errorf("node %d reports peer %s dead at startup", i, p.ID)
			}
		}
	}

	// Metrics expose the peer counters on every node.
	resp, err := http.Get(tc.addrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"dsserve_peer_forwards_total", "dsserve_steals_total", "dsserve_peer_errors_total", "dsserve_ring_members 3"} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestRouterOversizedBody: a body over service.MaxBody gets the answer a
// single service gives, on every POST route, through a cluster of one and
// through a cluster of three. A body cut short inside a value answers 400
// "decode request: http: request body too large", never a decode error
// about a body the router cut short; one whose first value ends below the
// cap answers as that value does.
func TestRouterOversizedBody(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	oracle := httptest.NewServer(service.NewServer(service.Options{Logger: quiet}).Handler())
	defer oracle.Close()
	post := func(addr, path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}

	// A string value that runs past the cap: the decoder reads until the
	// body reader fails, so the read error is what gets reported.
	cut := []byte(`{"workload": {"name": "` + strings.Repeat("x", service.MaxBody+1024) + `"}}`)
	whole := []byte(`{"workload": {"name": "nope"}, "scheme": {"name": "ref"}}` + strings.Repeat(" ", service.MaxBody))
	paths := []string{"/run", "/verify", "/compile", "/sweep"}
	want := make(map[string]string)
	for _, path := range paths {
		code, got := post(oracle.URL, path, cut)
		if code != http.StatusBadRequest || !strings.Contains(got, "request body too large") {
			t.Fatalf("single service %s: %d %s, want 400 request body too large", path, code, got)
		}
		want[path+" cut"] = got
		if code, got = post(oracle.URL, path, whole); code != http.StatusBadRequest || strings.Contains(got, "too large") {
			t.Fatalf("single service %s, complete first value: %d %s, want its own 400", path, code, got)
		}
		want[path+" whole"] = got
	}
	for _, size := range []int{1, 3} {
		tc := startCluster(t, size, Options{})
		for i, addr := range tc.addrs {
			for _, path := range paths {
				for name, body := range map[string][]byte{"cut": cut, "whole": whole} {
					if code, got := post(addr, path, body); code != http.StatusBadRequest || got != want[path+" "+name] {
						t.Errorf("%d-node cluster, node %d %s %s: %d %s, want 400 %s", size, i, path, name, code, got, want[path+" "+name])
					}
				}
			}
		}
	}
}
