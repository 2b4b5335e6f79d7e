package cluster

// Active failure detection with reversible demotion.
//
// The pre-probe cluster learned about peer death only from transport
// evidence — a forward or sweep dispatch exhausting its retries — and the
// verdict was permanent: a restarted node stayed outside every peer's ring
// until the whole fleet restarted. The prober replaces that with a
// suspect→confirm state machine per peer:
//
//	alive --probe failure--> suspect --SuspectAfter consecutive--> demoted
//	suspect --probe success--> alive
//	demoted --RejoinAfter consecutive successes--> alive (readmitted)
//
// A probe is an authenticated GET /healthz. Success means the peer
// answered with a parseable body claiming the expected node identity —
// regardless of HTTP status, so a peer that is merely degraded or shedding
// (503) is still alive; failure is a transport error, an unparseable body,
// or the wrong identity (an address reused by a different node must not
// impersonate a member).
//
// Probes double as the gossip channel: the /healthz body carries the
// peer's ring version and its view of every member's state. A differing
// version is counted as skew, and any member the peer holds not-alive is
// demoted here too (cooldown-gated) — so two nodes that disagree converge
// on the intersection of their live sets, the only set both can route
// consistently. Readmission is never gossiped: each node must witness the
// recovery with its own probes, which keeps a stale third-party view from
// resurrecting a dead peer.

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// peerState is the failure detector's verdict on one peer.
type peerState int

const (
	peerAlive peerState = iota
	peerSuspect
	peerDemoted
)

func (s peerState) String() string {
	switch s {
	case peerAlive:
		return "alive"
	case peerSuspect:
		return "suspect"
	default:
		return "demoted"
	}
}

// peerHealth is the per-peer detector state, guarded by Node.peersMu.
type peerHealth struct {
	state       peerState
	failures    int // consecutive probe failures
	successes   int // consecutive probe successes while demoted
	lastProbe   time.Time
	lastChange  time.Time
	lastReadmit time.Time // gates the demote cooldown
}

// healthzView is the slice of a peer's /healthz body the prober consumes.
type healthzView struct {
	Node        string `json:"node"`
	RingVersion string `json:"ringVersion"`
	Peers       []struct {
		ID    string `json:"id"`
		Alive bool   `json:"alive"`
	} `json:"peers"`
}

// probeJitter spreads one probe tick across ±10% of the base interval.
// Nodes started together (a deploy restarts the fleet at once) would
// otherwise probe in lockstep forever — synchronized bursts that load every
// /healthz handler at the same instant and sample peer liveness at the same
// phase. rand01 is injected for tests; it must return a value in [0, 1).
func probeJitter(base time.Duration, rand01 func() float64) time.Duration {
	return time.Duration(float64(base) * (0.9 + 0.2*rand01()))
}

// probeLoop probes every configured peer each ProbeInterval (±10% jitter
// per tick) until Stop.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	t := time.NewTimer(probeJitter(n.opts.ProbeInterval, rng.Float64))
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		t.Reset(probeJitter(n.opts.ProbeInterval, rng.Float64))
		for _, m := range n.full.Members() {
			if m.ID == n.self.ID {
				continue
			}
			select {
			case <-n.ctx.Done():
				return
			default:
			}
			n.probeOne(m)
		}
	}
}

// probeOne sends one probe and feeds the outcome into the state machine.
func (n *Node) probeOne(m Member) {
	n.probes.Add(1)
	view, ok := n.fetchHealthz(m)
	if !ok {
		n.probeFailures.Add(1)
	}
	n.observeProbe(m.ID, ok)
	if ok {
		n.absorbGossip(m.ID, view)
	}
}

// fetchHealthz performs the authenticated GET and validates identity.
func (n *Node) fetchHealthz(m Member) (healthzView, bool) {
	var view healthzView
	req, err := http.NewRequest(http.MethodGet, m.Addr+"/healthz", nil)
	if err != nil {
		return view, false
	}
	req.Header = n.probeHeader.Clone()
	resp, err := n.probeHTTP.Do(req)
	if err != nil {
		return view, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	resp.Body.Close()
	if err != nil || json.Unmarshal(body, &view) != nil || view.Node != m.ID {
		return view, false
	}
	return view, true
}

// observeProbe advances the state machine on one probe outcome.
func (n *Node) observeProbe(id string, ok bool) {
	n.peersMu.Lock()
	ph, exists := n.peers[id]
	if !exists {
		n.peersMu.Unlock()
		return
	}
	now := time.Now()
	ph.lastProbe = now
	if ok {
		ph.failures = 0
		switch ph.state {
		case peerSuspect:
			ph.state = peerAlive
			ph.lastChange = now
			n.log.Info("cluster: suspect peer recovered", "peer", id)
		case peerDemoted:
			ph.successes++
			if ph.successes >= n.opts.RejoinAfter {
				n.readmitLocked(id, ph)
			}
		}
		n.peersMu.Unlock()
		return
	}
	ph.successes = 0
	ph.failures++
	if ph.state == peerAlive {
		ph.state = peerSuspect
		ph.lastChange = now
		n.log.Warn("cluster: peer suspect", "peer", id, "failures", ph.failures)
	}
	confirm := ph.state == peerSuspect && ph.failures >= n.opts.SuspectAfter
	n.peersMu.Unlock()
	if confirm {
		n.demote(id, causeProbe)
	}
}

// absorbGossip folds a probed peer's view into ours: count version skew,
// and demote (cooldown-gated) any member the peer reports not-alive that
// we still hold alive. Never self, never the reporting peer itself — its
// own liveness is exactly what the probe just measured firsthand.
func (n *Node) absorbGossip(from string, view healthzView) {
	if view.RingVersion != "" && view.RingVersion != n.ring.Load().Version() {
		n.ringSkews.Add(1)
	}
	for _, p := range view.Peers {
		if p.Alive || p.ID == n.self.ID || p.ID == from {
			continue
		}
		n.peersMu.Lock()
		ph, known := n.peers[p.ID]
		holdAlive := known && ph.state != peerDemoted
		n.peersMu.Unlock()
		if holdAlive {
			n.demote(p.ID, causeGossip)
		}
	}
}
