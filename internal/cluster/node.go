package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// Peer-protocol headers.
const (
	// HeaderForwarded marks a request already routed by a peer: the
	// receiver must serve it locally, never re-forward — one hop, no loops,
	// even when two nodes momentarily disagree on membership.
	HeaderForwarded = "X-DSServe-Forwarded"
	// HeaderNode attributes a peer request to the sending node, and every
	// response to the node that actually served it.
	HeaderNode = "X-DSServe-Node"
	// HeaderPeerToken authenticates peer traffic: forwarded requests must
	// present the shared token (when one is configured), which also stops
	// users from spoofing the forwarded flag to bypass tenant admission.
	HeaderPeerToken = "X-DSServe-Peer-Token"
	// HeaderTenant names the tenant a request is charged to; absent means
	// DefaultTenant. Forwards propagate it for attribution, but admission
	// is charged once, at the edge node the user hit.
	HeaderTenant = "X-DSServe-Tenant"
	// HeaderRingVersion piggybacks the sender's membership-hash ring version
	// on peer requests and responses (forwards and sweep dispatches), so
	// both ends detect version skew without extra round trips. It is
	// observational: skew is counted, never refused, and the gossip
	// absorbed from probes converges the nodes' live sets to their
	// intersection.
	HeaderRingVersion = "X-DSServe-Ring-Version"
)

// Options configures a cluster node.
type Options struct {
	// Self is this node's member ID; it must appear in Members.
	Self string
	// Members is the full cluster membership, including self. A single
	// entry (or empty, defaulting to just self) is a valid cluster of one.
	Members []Member
	// PeerToken is the shared secret authenticating peer traffic; empty
	// disables peer auth (single-node or trusted-network deployments).
	PeerToken string
	// Tenant is the per-tenant admission policy (zero value: disabled).
	Tenant TenantPolicy
	// StealChunk caps the points per dispatched sweep sub-grid (default
	// 16). Smaller chunks give work-stealing finer granularity; larger
	// ones amortize dispatch overhead.
	StealChunk int
	// PeerAttempts/PeerBaseDelay tune the retrying peer clients (defaults
	// 3 / 50ms; a retry waits at most peerMaxDelay). Attempts are
	// deliberately fewer than a user-facing client's: an unreachable peer
	// should be declared dead and healed around quickly.
	PeerAttempts  int
	PeerBaseDelay time.Duration
	// ProbeInterval is the active failure detector's probe period; 0
	// disables probing (membership then changes only on transport evidence,
	// as before the detector existed). With probing on, demotion is
	// reversible: a restarted peer rejoins without a fleet restart.
	ProbeInterval time.Duration
	// SuspectAfter is how many consecutive probe failures confirm a suspect
	// peer dead (default 3). The first failure only marks it suspect.
	SuspectAfter int
	// RejoinAfter is how many consecutive probe successes readmit a demoted
	// peer (default 2) — hysteresis, so a flapping peer doesn't thrash the
	// ring.
	RejoinAfter int
	// DemoteCooldown suppresses transport- and gossip-cause demotions
	// within this window after a peer's readmission (default 5s; negative
	// disables), bounding ring churn: one flaky forward right after a
	// rejoin cannot flap the ring, while probe- and drain-cause demotions
	// (deliberate, evidence-backed) bypass the cooldown.
	DemoteCooldown time.Duration
	// Replicas is ignored: entries move between nodes only by kept
	// forwards (keepRelayed), never by pushing fills or a draining node's
	// cache. It remains because the benchmark harness in bench/dsload sets
	// it.
	Replicas int
	// Logger receives peer-event logs (default slog.Default).
	Logger *slog.Logger
}

// peerMaxDelay caps the backoff between a peer client's retries.
const peerMaxDelay = time.Second

func (o Options) withDefaults() Options {
	if o.Self == "" {
		o.Self = "solo"
	}
	if len(o.Members) == 0 {
		o.Members = []Member{{ID: o.Self, Addr: "http://127.0.0.1:0"}}
	}
	if o.StealChunk <= 0 {
		o.StealChunk = 16
	}
	if o.PeerAttempts <= 0 {
		o.PeerAttempts = 3
	}
	if o.PeerBaseDelay <= 0 {
		o.PeerBaseDelay = 50 * time.Millisecond
	}
	if o.ProbeInterval < 0 {
		o.ProbeInterval = 0
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 3
	}
	if o.RejoinAfter <= 0 {
		o.RejoinAfter = 2
	}
	if o.DemoteCooldown == 0 {
		o.DemoteCooldown = 5 * time.Second
	} else if o.DemoteCooldown < 0 {
		o.DemoteCooldown = 0
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Node is one member of the logical service: a service.Server wrapped with
// consistent-hash routing, peer forwarding, work-stealing sweep dispatch
// and per-tenant admission.
type Node struct {
	opts    Options
	self    Member
	srv     *service.Server
	adm     *Admission
	full    *Ring                      // configured membership, immutable
	ring    atomic.Pointer[Ring]       // live view: configured minus demoted
	clients map[string]*service.Client // peer clients by member ID (not self)
	log     *slog.Logger

	// peers is the failure detector's per-peer state (excludes self); every
	// state transition rebuilds the live ring under peersMu and swaps it
	// atomically, so readers stay lock-free.
	peersMu sync.Mutex
	peers   map[string]*peerHealth

	probeHTTP   *http.Client
	probeHeader http.Header

	// ctx is canceled by Stop; the prober runs under it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	forwards    atomic.Int64 // requests forwarded to their owning peer
	forwardKept atomic.Int64 // relayed owner hits kept in the local cache
	steals      atomic.Int64 // sweep sub-grids executed by a non-owner node
	peerErrors  atomic.Int64 // peer calls that exhausted their retries

	probes           atomic.Int64 // liveness probes sent
	probeFailures    atomic.Int64 // probes that failed (transport or identity mismatch)
	demotions        atomic.Int64 // peers demoted out of the live ring
	rejoins          atomic.Int64 // demoted peers readmitted
	ringSkews        atomic.Int64 // peer exchanges that observed a differing ring version
	unknownDemotions atomic.Int64 // demotion requests for IDs outside the membership

	replicaHits   atomic.Int64 // non-owned keys served from the local cache
	replicaMisses atomic.Int64 // non-owned keys served by local recompute
}

// New builds the node and its underlying service.Server (whose /healthz
// and /metrics are extended with cluster state via the service hooks).
func New(opts Options, srvOpts service.Options) (*Node, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Members)
	if err != nil {
		return nil, err
	}
	self, ok := ring.Member(opts.Self)
	if !ok {
		return nil, fmt.Errorf("cluster: self ID %q is not in the membership", opts.Self)
	}

	if ring.Size() > 1 && opts.PeerToken == "" {
		// Without a token the forwarded flag is unauthenticated, and any
		// client that sets it skips per-tenant admission. Acceptable on a
		// trusted network, silent nowhere.
		opts.Logger.Warn("cluster: multi-node deployment without a peer token; clients that set "+
			HeaderForwarded+" bypass tenant admission — configure -peer-token outside trusted networks",
			"members", ring.Size())
	}

	n := &Node{
		opts:    opts,
		self:    self,
		adm:     NewAdmission(opts.Tenant),
		full:    ring,
		clients: make(map[string]*service.Client),
		peers:   make(map[string]*peerHealth),
		log:     opts.Logger,
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.ring.Store(ring)
	hdr := http.Header{}
	hdr.Set(HeaderForwarded, "1")
	hdr.Set(HeaderNode, self.ID)
	if opts.PeerToken != "" {
		hdr.Set(HeaderPeerToken, opts.PeerToken)
	}
	n.probeHeader = hdr
	probeTimeout := opts.ProbeInterval
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	n.probeHTTP = &http.Client{Timeout: probeTimeout}
	for _, m := range ring.Members() {
		if m.ID == self.ID {
			continue
		}
		n.peers[m.ID] = &peerHealth{state: peerAlive}
		n.clients[m.ID] = &service.Client{
			Base:        m.Addr,
			MaxAttempts: opts.PeerAttempts,
			BaseDelay:   opts.PeerBaseDelay,
			MaxDelay:    peerMaxDelay,
			Header:      hdr,
		}
	}

	srvOpts.HealthInfo = n.healthInfo
	srvOpts.MetricsAppend = n.metricsAppend
	srvOpts.Degraded = n.degraded
	n.srv = service.NewServer(srvOpts)

	if ring.Size() > 1 && opts.ProbeInterval > 0 {
		n.wg.Add(1)
		go n.probeLoop()
	}
	return n, nil
}

// Stop shuts down the node's prober and waits for it. The underlying
// service server is not drained; call Server().Drain for that.
func (n *Node) Stop() {
	n.cancel()
	n.wg.Wait()
}

// Server exposes the underlying service server (drain, tests).
func (n *Node) Server() *service.Server { return n.srv }

// Ring exposes the current membership view.
func (n *Node) Ring() *Ring { return n.ring.Load() }

// demoteCause names why a peer left the live ring; it decides whether the
// per-peer cooldown applies.
type demoteCause string

const (
	// causeTransport: a forward or sweep dispatch exhausted its retries.
	// One data point from one request — cooldown-gated.
	causeTransport demoteCause = "transport"
	// causeGossip: a probed peer reported the member not-alive. Secondhand
	// evidence — cooldown-gated.
	causeGossip demoteCause = "gossip"
	// causeProbe: SuspectAfter consecutive probe failures. Deliberate,
	// evidence-backed — bypasses the cooldown.
	causeProbe demoteCause = "probe"
	// causeDrain: the peer announced its own departure. Authoritative —
	// bypasses the cooldown.
	causeDrain demoteCause = "drain"
)

// MarkDead demotes a member out of this node's live ring (no-op for self,
// the last member, or an ID outside the configured membership). The ring
// version changes, keys owned by the demoted node reassign to the
// survivors, and in-flight sweeps re-dispatch its sub-grids — the
// cluster-scope analogue of PC ownership reclamation. Unlike its pre-probe
// ancestor, the demotion is reversible: the failure detector readmits the
// peer after RejoinAfter consecutive successful probes.
func (n *Node) MarkDead(id string) {
	n.demote(id, causeTransport)
}

// demote moves a peer to the demoted state and rebuilds the live ring.
// Unknown IDs are a counted no-op — a stale gossip payload or a caller bug
// must not CAS-loop or grow state. Transport- and gossip-cause demotions
// within DemoteCooldown of the peer's last readmission are suppressed,
// bounding ring churn; the prober escalates through suspect with its own
// consecutive-failure evidence if the peer is genuinely down again.
func (n *Node) demote(id string, cause demoteCause) {
	n.demoteFailed(id, cause, time.Time{})
}

// demoteFailed is demote with the time the member was last seen
// unreachable, when the evidence is secondhand (a gossip report's failure
// time, or zero when the report carries none). Firsthand causes record
// now.
func (n *Node) demoteFailed(id string, cause demoteCause, failedAt time.Time) {
	if id == n.self.ID {
		return
	}
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	ph, ok := n.peers[id]
	if !ok {
		n.unknownDemotions.Add(1)
		n.log.Warn("cluster: demotion request for unknown member ignored", "peer", id, "cause", string(cause))
		return
	}
	if ph.state == peerDemoted {
		return
	}
	now := time.Now()
	if (cause == causeTransport || cause == causeGossip) &&
		!ph.lastReadmit.IsZero() && now.Sub(ph.lastReadmit) < n.opts.DemoteCooldown {
		n.log.Debug("cluster: demotion suppressed by readmit cooldown", "peer", id, "cause", string(cause))
		return
	}
	ph.state = peerDemoted
	ph.failures, ph.successes = 0, 0
	if cause == causeTransport || cause == causeDrain {
		// Firsthand evidence, like a failed probe.
		failedAt = now
	}
	if !failedAt.IsZero() {
		ph.lastFailure, ph.upSince = failedAt, time.Time{}
	}
	n.demotions.Add(1)
	n.rebuildRingLocked()
	live := n.ring.Load()
	n.log.Warn("cluster: peer demoted", "peer", id, "cause", string(cause),
		"ringVersion", live.Version(), "members", live.Size())
}

// readmitLocked returns a demoted peer to the live ring (peersMu held).
func (n *Node) readmitLocked(id string, ph *peerHealth) {
	ph.state = peerAlive
	ph.failures, ph.successes = 0, 0
	ph.lastReadmit = time.Now()
	n.rejoins.Add(1)
	n.rebuildRingLocked()
	live := n.ring.Load()
	n.log.Info("cluster: peer rejoined", "peer", id,
		"ringVersion", live.Version(), "members", live.Size())
}

// rebuildRingLocked recomputes the live ring — the configured membership
// minus demoted peers, self always included — and swaps it atomically
// (peersMu held). Ownership is a pure function of the live set, so any two
// nodes that agree on liveness agree on ownership.
func (n *Node) rebuildRingLocked() {
	alive := make([]Member, 0, n.full.Size())
	for _, m := range n.full.Members() {
		if m.ID == n.self.ID || n.peers[m.ID].state != peerDemoted {
			alive = append(alive, m)
		}
	}
	r, err := NewRing(alive)
	if err != nil {
		// Unreachable: the set always contains self.
		n.log.Error("cluster: live ring rebuild failed", "err", err)
		return
	}
	n.ring.Store(r)
}

// degraded reports the node unhealthy when more than half of its
// configured peers are demoted: a minority partition keeps serving reads
// it can, but tells load balancers to prefer the majority side.
func (n *Node) degraded() (bool, string) {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if len(n.peers) == 0 {
		return false, ""
	}
	demoted := 0
	for _, ph := range n.peers {
		if ph.state == peerDemoted {
			demoted++
		}
	}
	if demoted*2 > len(n.peers) {
		return true, fmt.Sprintf("%d of %d peers demoted", demoted, len(n.peers))
	}
	return false, ""
}

// PeerState reports the failure detector's state for a member ("self",
// "alive", "suspect", "demoted", or "" for unknown IDs).
func (n *Node) PeerState(id string) string {
	if id == n.self.ID {
		return "self"
	}
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	ph, ok := n.peers[id]
	if !ok {
		return ""
	}
	return ph.state.String()
}

// Handler wraps the service handler with the peer middleware.
func (n *Node) Handler() http.Handler {
	return n.middleware(n.srv.Handler())
}

func (n *Node) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded := r.Header.Get(HeaderForwarded) != ""
		if forwarded && n.opts.PeerToken != "" && r.Header.Get(HeaderPeerToken) != n.opts.PeerToken {
			n.writeError(w, http.StatusForbidden, fmt.Errorf("cluster: invalid peer token"))
			return
		}
		if forwarded {
			// Piggybacked ring-version exchange: compare the sender's view,
			// and stamp ours on the response for the sender to compare.
			if v := r.Header.Get(HeaderRingVersion); v != "" && v != n.ring.Load().Version() {
				n.ringSkews.Add(1)
			}
			w.Header().Set(HeaderRingVersion, n.ring.Load().Version())
		}
		if strings.HasPrefix(r.URL.Path, "/internal/") {
			// Peer-internal endpoints: authenticated peer traffic only (the
			// token check above already ran for forwarded requests), and no
			// admission — a sweep sub-grid was admitted at the edge that
			// split the sweep, and a departure must be heard while a tenant
			// is shed.
			if !forwarded {
				n.writeError(w, http.StatusForbidden,
					fmt.Errorf("cluster: %s is peer-internal", r.URL.Path))
				return
			}
			switch r.URL.Path {
			case "/internal/departing":
				n.handleDeparting(w, r)
			case "/internal/sweep":
				n.handleSweepPoints(w, r)
			default:
				n.writeError(w, http.StatusNotFound,
					fmt.Errorf("cluster: unknown peer-internal endpoint %s", r.URL.Path))
			}
			return
		}
		if r.Method != http.MethodPost {
			// GET /healthz and /metrics answer locally on every node and
			// bypass admission: monitoring must work while shedding.
			w.Header().Set(HeaderNode, n.self.ID)
			inner.ServeHTTP(w, r)
			return
		}

		// Per-tenant admission, charged once at the edge: forwarded peer
		// traffic was already admitted by the node the user actually hit.
		if !forwarded {
			if retryAfter, ok := n.adm.Admit(r.Header.Get(HeaderTenant)); !ok {
				w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
				n.writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("cluster: tenant over admission limits; retry later"))
				return
			}
		}

		switch {
		case !forwarded && r.URL.Path == "/sweep":
			n.coordinateSweep(w, r, inner)
		case !forwarded && (r.URL.Path == "/run" || r.URL.Path == "/verify" || r.URL.Path == "/compile"):
			n.routeOrServe(w, r, inner)
		default:
			w.Header().Set(HeaderNode, n.self.ID)
			inner.ServeHTTP(w, r)
		}
	})
}

// routeOrServe keys the request (Server.Prepare: a memo lookup for a body
// seen before, else decode, build and canon key, once) and serves it
// locally when this node owns its key or already holds it in its cache,
// otherwise forwards it to the owner. Determinism makes a held entry the
// owner's answer on every node, so any holder may answer. A request served
// here carries the prepared request to the handler, which therefore
// neither reads nor keys it again. Requests that do not prepare (malformed
// JSON, unknown workload) fall through to the local handler, which owns the
// error vocabulary.
//
// A held entry can be evicted between the check here and the handler's
// cache lookup; the handler then computes the key itself, which
// determinism again makes correct.
//
// When the forward fails, the owner is demoted and this node serves the key
// itself: determinism makes any node's answer the owner's answer.
func (n *Node) routeOrServe(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	body, readErr := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBody))
	var p *service.Prepared
	err := readErr
	if err == nil {
		p, err = n.srv.Prepare(r.URL.Path, body)
	}
	if err != nil {
		r.Body = service.ReplayBody(body, readErr)
		n.serveLocal(w, r, inner)
		return
	}
	owner := n.ring.Load().Owner(p.Key)
	if owner.ID != n.self.ID && !n.srv.CacheHas(p.Key) && n.forward(w, r, owner, body, p.Key) {
		return
	}
	n.serveKeyed(w, r, inner, p)
}

func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, inner http.Handler) {
	w.Header().Set(HeaderNode, n.self.ID)
	inner.ServeHTTP(w, r)
}

// serveKeyed serves a prepared request locally, with replica accounting:
// when the key's configured (full-membership) owner is some other node, a
// local cache entry is a replica hit (a kept forward paid off) and a miss
// means recompute (the owner is gone, or this node never kept the key).
// The counters measure exactly what moving entries between nodes is for.
func (n *Node) serveKeyed(w http.ResponseWriter, r *http.Request, inner http.Handler, p *service.Prepared) {
	if n.full.Owner(p.Key).ID != n.self.ID {
		if n.srv.CacheHas(p.Key) {
			n.replicaHits.Add(1)
		} else {
			n.replicaMisses.Add(1)
		}
	}
	n.serveLocal(w, r.WithContext(service.WithPrepared(r.Context(), p)), inner)
}

// statusClientClosedRequest is the nginx-conventional status for "the
// caller went away before an answer existed" — not an RFC code, but the
// widely understood vocabulary for it in proxy logs.
const statusClientClosedRequest = 499

// forward relays the request for key to its owning peer and the peer's
// answer — whatever it is, a 200 as much as a 429 with Retry-After — back
// to the caller, then keeps a relayed hit (keepRelayed). It reports false
// when the peer is unreachable after retries, in which case the peer is
// marked dead and the caller serves locally.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner Member, body []byte, key cache.Key) bool {
	cl := n.clients[owner.ID]
	if cl == nil {
		return false
	}
	fwd := *cl
	fwd.Header = fwd.Header.Clone()
	fwd.Header.Set(HeaderRingVersion, n.ring.Load().Version())
	if tenant := r.Header.Get(HeaderTenant); tenant != "" {
		fwd.Header.Set(HeaderTenant, tenant)
	}
	status, respBody, respHdr, err := fwd.PostRaw(r.Context(), r.URL.Path, body)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil {
			// The caller ended the request (disconnect or client-side
			// deadline) mid-forward: that says nothing about the peer's
			// health, so it must not be marked dead — one impatient client
			// must never shrink the ring. Same guard the sweep dispatch
			// path applies before its MarkDead.
			n.writeError(w, statusClientClosedRequest,
				fmt.Errorf("cluster: request canceled while forwarding to %s: %w", owner.ID, ctxErr))
			return true
		}
		n.peerErrors.Add(1)
		n.log.Warn("cluster: forward failed; serving locally", "peer", owner.ID, "path", r.URL.Path, "err", err)
		n.MarkDead(owner.ID)
		return false
	}
	n.forwards.Add(1)
	if v := respHdr.Get(HeaderRingVersion); v != "" && v != n.ring.Load().Version() {
		n.ringSkews.Add(1)
	}
	for _, h := range []string{"Content-Type", "Retry-After", HeaderNode} {
		if v := respHdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(status)
	w.Write(respBody)
	if status == http.StatusOK {
		n.keepRelayed(key, strings.TrimPrefix(r.URL.Path, "/"), respBody)
	}
	return true
}

// keepRelayed stores the owner's relayed 200 answer for key as an imported
// cache entry, so the next request for key is served here. The relayed
// body is json.Indent of the owner's compact answer plus a newline, so
// compacting it gives that answer back exactly; the import keeps it only
// if it is the key's hit answer (valid JSON decorated with this key and
// cached: true), never a miss answer or another key's.
func (n *Node) keepRelayed(key cache.Key, kind string, relayed []byte) {
	if n.srv.CacheHas(key) {
		return
	}
	var compact bytes.Buffer
	compact.Grow(len(relayed))
	if json.Compact(&compact, relayed) != nil {
		return
	}
	if n.srv.ImportCacheEntry(key, kind, compact.Bytes()) == nil {
		n.forwardKept.Add(1)
	}
}

// ---- observability ----

// healthInfo feeds the cluster view into GET /healthz: ring identity plus
// the failure detector's per-peer state. Peers read this from each other's
// probes ("gossip"): the listed states and ring version are what lets a
// probed node's view propagate without a separate gossip protocol.
func (n *Node) healthInfo() map[string]any {
	ring := n.ring.Load()
	n.peersMu.Lock()
	peers := make([]map[string]any, 0, n.full.Size())
	now := time.Now()
	for _, m := range n.full.Members() {
		state := "self"
		ph, ok := n.peers[m.ID]
		if ok {
			state = ph.state.String()
		}
		peer := map[string]any{
			"id":    m.ID,
			"addr":  m.Addr,
			"state": state,
			// alive is the pre-detector vocabulary: present in the live ring.
			"alive": state != "demoted",
		}
		if ok && ph.state == peerDemoted && !ph.lastFailure.IsZero() {
			// Lets a prober tell a fresh failure from a stale view
			// (absorbGossip). The key sorts after "state", so the encoded
			// entry keeps "id" and "state" on adjacent lines for
			// line-oriented readers such as scripts/cluster_smoke.sh.
			peer["unreachableAgoUs"] = now.Sub(ph.lastFailure).Microseconds()
		}
		peers = append(peers, peer)
	}
	n.peersMu.Unlock()
	return map[string]any{
		"node":        n.self.ID,
		"ringVersion": ring.Version(),
		"ringMembers": ring.Size(),
		"peers":       peers,
	}
}

// metricsAppend feeds the peer-protocol counters into GET /metrics.
func (n *Node) metricsAppend(w io.Writer) {
	fmt.Fprintf(w, "# HELP dsserve_peer_forwards_total Requests forwarded to their owning peer node.\n# TYPE dsserve_peer_forwards_total counter\ndsserve_peer_forwards_total %d\n", n.forwards.Load())
	fmt.Fprintf(w, "# HELP dsserve_forward_kept_total Owner hit answers relayed by a forward and kept in the local cache.\n# TYPE dsserve_forward_kept_total counter\ndsserve_forward_kept_total %d\n", n.forwardKept.Load())
	fmt.Fprintf(w, "# HELP dsserve_steals_total Sweep sub-grids executed by a node that does not own them.\n# TYPE dsserve_steals_total counter\ndsserve_steals_total %d\n", n.steals.Load())
	fmt.Fprintf(w, "# HELP dsserve_peer_errors_total Peer calls that exhausted their retries (node-loss signals).\n# TYPE dsserve_peer_errors_total counter\ndsserve_peer_errors_total %d\n", n.peerErrors.Load())
	fmt.Fprintf(w, "# HELP dsserve_ring_members Live members in this node's ring view.\n# TYPE dsserve_ring_members gauge\ndsserve_ring_members %d\n", n.ring.Load().Size())
	deg := 0
	if d, _ := n.degraded(); d {
		deg = 1
	}
	fmt.Fprintf(w, "# HELP dsserve_probes_total Liveness probes sent to peers.\n# TYPE dsserve_probes_total counter\ndsserve_probes_total %d\n", n.probes.Load())
	fmt.Fprintf(w, "# HELP dsserve_probe_failures_total Probes that failed (transport error or identity mismatch).\n# TYPE dsserve_probe_failures_total counter\ndsserve_probe_failures_total %d\n", n.probeFailures.Load())
	fmt.Fprintf(w, "# HELP dsserve_demotions_total Peers demoted out of the live ring.\n# TYPE dsserve_demotions_total counter\ndsserve_demotions_total %d\n", n.demotions.Load())
	fmt.Fprintf(w, "# HELP dsserve_rejoins_total Demoted peers readmitted to the live ring.\n# TYPE dsserve_rejoins_total counter\ndsserve_rejoins_total %d\n", n.rejoins.Load())
	fmt.Fprintf(w, "# HELP dsserve_ring_skew_total Peer exchanges that observed a differing ring version.\n# TYPE dsserve_ring_skew_total counter\ndsserve_ring_skew_total %d\n", n.ringSkews.Load())
	fmt.Fprintf(w, "# HELP dsserve_unknown_demotions_total Demotion requests for IDs outside the configured membership (ignored).\n# TYPE dsserve_unknown_demotions_total counter\ndsserve_unknown_demotions_total %d\n", n.unknownDemotions.Load())
	fmt.Fprintf(w, "# HELP dsserve_degraded Whether more than half of the configured peers are demoted.\n# TYPE dsserve_degraded gauge\ndsserve_degraded %d\n", deg)
	fmt.Fprintf(w, "# HELP dsserve_replica_hits_total Non-owned keys served from the local cache (a kept forward paid off).\n# TYPE dsserve_replica_hits_total counter\ndsserve_replica_hits_total %d\n", n.replicaHits.Load())
	fmt.Fprintf(w, "# HELP dsserve_replica_misses_total Non-owned keys served by local recompute.\n# TYPE dsserve_replica_misses_total counter\ndsserve_replica_misses_total %d\n", n.replicaMisses.Load())
	sheds := n.adm.Sheds()
	if len(sheds) > 0 {
		fmt.Fprintf(w, "# HELP dsserve_tenant_shed_total Requests shed by per-tenant admission (429s), by tenant.\n# TYPE dsserve_tenant_shed_total counter\n")
		for _, s := range sheds {
			fmt.Fprintf(w, "dsserve_tenant_shed_total{tenant=%q} %d\n", s.Tenant, s.Shed)
		}
	}
}

// readPeer reads a peer-internal request body of at most limit bytes into
// a buffer sized from its Content-Length, answering 413 or 400 itself when
// it cannot.
func (n *Node) readPeer(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), limit)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		n.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("cluster: %s exceeds %d bytes", what, limit))
	case err != nil:
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: read %s: %w", what, err))
	default:
		return buf.Bytes(), true
	}
	return nil, false
}

// writeJSON writes a 200 JSON answer for the cluster-owned endpoints,
// marked with this node's ID.
func (n *Node) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set(HeaderNode, n.self.ID)
	if err := service.WriteJSON(w, http.StatusOK, v); err != nil {
		n.log.Error("cluster: encode response", "err", err)
	}
}

// writeError writes err as a JSON error answer, marked with this node's ID.
func (n *Node) writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set(HeaderNode, n.self.ID)
	// An error answer that cannot be written has no reader left to tell.
	_ = service.WriteError(w, code, err)
}
