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
//
// Nor may a stale view bury a recovered one. A demoted member's entry
// carries how long ago the reporter last failed to reach it; when this
// node has seen the member answer since then — its unbroken run of
// successful probes began after the reporter's failure — the report is
// older than this node's own evidence and is ignored. Without the check a
// restarted node flapped: the survivor that readmitted it first demoted
// it again on the gossip of a survivor whose next probe had not come yet.

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
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
	failures    int       // consecutive probe failures
	successes   int       // consecutive probe successes while demoted
	lastReadmit time.Time // gates the demote cooldown
	// lastFailure is the last firsthand evidence the peer is gone: a
	// failed probe, an exhausted transport or its drain announcement.
	// upSince is when the current unbroken run of successful probes
	// began (zero after any such failure).
	lastFailure time.Time
	upSince     time.Time
}

// healthzView is the slice of a peer's /healthz body the prober consumes.
type healthzView struct {
	Node        string `json:"node"`
	RingVersion string `json:"ringVersion"`
	Peers       []struct {
		ID    string `json:"id"`
		Alive bool   `json:"alive"`
		// UnreachableAgoUs is how long before answering the peer last
		// failed to reach this member (demoted members only; absent when
		// the peer has no firsthand failure).
		UnreachableAgoUs *int64 `json:"unreachableAgoUs"`
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
		n.absorbGossip(m.ID, view, time.Now())
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
	body, err := io.ReadAll(io.LimitReader(resp.Body, service.MaxBody))
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
	if ok {
		ph.failures = 0
		if ph.upSince.IsZero() {
			ph.upSince = now
		}
		switch ph.state {
		case peerSuspect:
			ph.state = peerAlive
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
	ph.lastFailure, ph.upSince = now, time.Time{}
	if ph.state == peerAlive {
		ph.state = peerSuspect
		n.log.Warn("cluster: peer suspect", "peer", id, "failures", ph.failures)
	}
	confirm := ph.state == peerSuspect && ph.failures >= n.opts.SuspectAfter
	n.peersMu.Unlock()
	if confirm {
		n.demote(id, causeProbe)
	}
}

// absorbGossip folds a probed peer's view, read at time at, into ours:
// count version skew, and demote (cooldown-gated) any member the peer
// reports not-alive that we still hold alive — unless the report is stale:
// the latest instant the peer's last failure to reach the member can have
// happened (at minus its reported age) lies before our own unbroken run of
// successful probes of that member began. Never self, never the reporting
// peer itself — its own liveness is exactly what the probe just measured
// firsthand. A demotion carries the reporter's failure time on, so this
// node's own /healthz ages the report and a third node that has since
// seen the member answer can discard it.
func (n *Node) absorbGossip(from string, view healthzView, at time.Time) {
	if view.RingVersion != "" && view.RingVersion != n.ring.Load().Version() {
		n.ringSkews.Add(1)
	}
	for _, p := range view.Peers {
		if p.Alive || p.ID == n.self.ID || p.ID == from {
			continue
		}
		var failedAt time.Time
		if p.UnreachableAgoUs != nil {
			failedAt = at.Add(-time.Duration(*p.UnreachableAgoUs) * time.Microsecond)
		}
		n.peersMu.Lock()
		ph, known := n.peers[p.ID]
		holdAlive := known && ph.state != peerDemoted
		stale := holdAlive && !failedAt.IsZero() && !ph.upSince.IsZero() && failedAt.Before(ph.upSince)
		n.peersMu.Unlock()
		if holdAlive && !stale {
			n.demoteFailed(p.ID, causeGossip, failedAt)
		}
	}
}
