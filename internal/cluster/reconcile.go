package cluster

// Replica convergence.
//
// Cache entries move between nodes for three reasons, and all three are
// thin callers of one reconciler (reconcile), whose single job is to make
// each of a set of held keys present on the members that should hold it:
//
//   - Fill replication: each fresh fill's key is queued (bounded,
//     drop-oldest: replication never blocks the serving path) and one
//     worker pushes up to handoffBatch queued keys at a time to their K
//     live-ring successors, one POST per successor. When the owner is
//     demoted, routeOrServe falls through to those successors, which
//     answer from the replica instead of recomputing.
//   - Anti-entropy: successor sets drift with every demotion, rejoin or
//     drain. On each live-ring transition (debounced) and on a slow timer
//     the live-ring owner — only the owner, so each repair has one driver —
//     asks each successor which owned keys it holds (/internal/has:
//     measured presence, not bookkeeping a restart would invalidate) and
//     pushes only the missing copies.
//   - Drain handoff: on SIGTERM a node announces its departure
//     (/internal/departing; receivers demote it at once) and pushes every
//     held key, hottest first, to its owner on the ring without itself. A
//     target that fails or is demoted mid-stream is skipped and its keys
//     re-planned onto their next owner: the handoff moves cache
//     provenance, never correctness, so it must not spend the shutdown
//     deadline on a dead peer.
//
// Entries are exported at push time, so the serving path never encodes
// for replication; a key evicted before its push counts as a replica drop.
// Replicas never change response bytes: the content address makes any two
// values under one key identical. Push failures are counted but never
// demote a peer — the prober owns liveness.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

const (
	// handoffBatch caps the entries per /internal/handoff POST, bounding
	// the receiver's body size and the blast radius of one failed batch.
	handoffBatch = 64
	// maxHandoffBody caps the /internal/handoff request body: a backstop
	// against a misbehaving peer, far above 64 entries of a few KB each.
	maxHandoffBody = 8 << 20
	// replQueueCap bounds the fill queue; beyond it the oldest pending key
	// is dropped (and counted) rather than blocking the serving path.
	replQueueCap = 256
	// replPushTimeout bounds one peer-internal POST (a push batch or a has
	// query), so a hung peer cannot stall a loop until Stop.
	replPushTimeout = 5 * time.Second
	// hasBatch caps the keys per /internal/has query.
	hasBatch = 128
	// aeKickDelay debounces transition-kicked scans: transitions arrive in
	// bursts, and one scan after the burst beats three during it.
	aeKickDelay = 50 * time.Millisecond
)

type handoffResponse struct {
	Imported int `json:"imported"`
}

type departingRequest struct {
	Node string `json:"node"`
}

type hasRequest struct {
	Keys []string `json:"keys"`
}

type hasResponse struct {
	Has []bool `json:"has"`
}

// HandoffReport summarizes one reconcile pass (a drain handoff, one fill
// batch or one anti-entropy repair).
type HandoffReport struct {
	Peers         int   `json:"peers"`         // distinct receiving members
	Entries       int   `json:"entries"`       // entries delivered
	Bytes         int64 `json:"bytes"`         // compact answer bytes delivered
	Batches       int   `json:"batches"`       // batches delivered
	FailedBatches int   `json:"failedBatches"` // batches lost (skipped, not fatal)
}

// reconcile makes each planned key present on the member it is planned
// for: plan maps member IDs to keys in push order. Members are visited in
// ID order, each in handoffBatch-sized /internal/handoff POSTs. A member
// that fails a batch or is demoted mid-stream gets nothing more; its
// remaining keys go to replan, when set, with that member to exclude, and
// are otherwise lost. All accounting happens here: handoff counters for
// the drain, replica counters for fill and anti-entropy pushes, and a
// replica drop for every key evicted before its push.
func (n *Node) reconcile(ctx context.Context, reason string, plan map[string][]cache.Key,
	replan func(keys []cache.Key, exclude string) map[string][]cache.Key) HandoffReport {
	var rep HandoffReport
	lost := 0
	lose := func(keys []cache.Key) {
		rep.FailedBatches += (len(keys) + handoffBatch - 1) / handoffBatch
		lost += len(keys)
	}
	skip := func(id string, rest []cache.Key) {
		var next map[string][]cache.Key
		if replan != nil && len(rest) > 0 {
			next = replan(rest, id)
		}
		if next == nil {
			lose(rest)
		}
		for to, keys := range next {
			plan[to] = append(plan[to], keys...)
		}
	}
	receivers := map[string]bool{}
	for len(plan) > 0 {
		id := ""
		for to := range plan {
			if id == "" || to < id {
				id = to
			}
		}
		keys := plan[id]
		delete(plan, id)
		cl := n.clients[id]
		if cl == nil {
			lose(keys)
			continue
		}
		for start := 0; start < len(keys); start += handoffBatch {
			if ctx.Err() != nil {
				lose(keys[start:])
				for _, rest := range plan {
					lose(rest)
				}
				clear(plan)
				break
			}
			if n.PeerState(id) == "demoted" {
				n.log.Warn("cluster: push target demoted mid-stream; skipping it",
					"peer", id, "reason", reason, "remaining", len(keys)-start)
				skip(id, keys[start:])
				break
			}
			end := min(start+handoffBatch, len(keys))
			req := HandoffRequest{From: n.self.ID, Reason: reason, Entries: make([]service.CacheEntry, 0, end-start)}
			for _, k := range keys[start:end] {
				if e, ok := n.srv.ExportCacheEntry(k); ok {
					req.Entries = append(req.Entries, e)
				} else {
					n.replicaDrops.Add(1)
				}
			}
			if len(req.Entries) == 0 {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, replPushTimeout)
			err := cl.PostBody(pctx, "/internal/handoff", handoffContentType, req.frames(), nil)
			cancel()
			if err != nil {
				rep.FailedBatches++
				lost += len(req.Entries)
				n.log.Warn("cluster: push batch failed; skipping the target",
					"peer", id, "reason", reason, "entries", len(req.Entries), "err", err)
				skip(id, keys[end:])
				break
			}
			receivers[id] = true
			rep.Batches++
			rep.Entries += len(req.Entries)
			for _, e := range req.Entries {
				rep.Bytes += int64(len(e.Body))
			}
		}
	}
	rep.Peers = len(receivers)
	if reason == "drain" {
		n.handoffSentEntries.Add(int64(rep.Entries))
		n.handoffSentBytes.Add(rep.Bytes)
	} else {
		n.replicaPushes.Add(int64(rep.Entries))
		n.replicaPushErrors.Add(int64(lost))
		if reason == "antientropy" {
			n.antiPushes.Add(int64(rep.Entries))
		}
	}
	return rep
}

// groupKeys plans keys onto the members targets names for each, self
// excluded, keeping the keys' order within each member.
func (n *Node) groupKeys(keys []cache.Key, targets func(cache.Key) []Member) map[string][]cache.Key {
	plan := make(map[string][]cache.Key)
	for _, k := range keys {
		for _, m := range targets(k) {
			if m.ID != n.self.ID {
				plan[m.ID] = append(plan[m.ID], k)
			}
		}
	}
	return plan
}

// ---- fill replication ----

// onCacheFill is the service.Options.OnCacheFill hook: queue the key,
// dropping the oldest pending one when full, and return.
func (n *Node) onCacheFill(k cache.Key) {
	n.replMu.Lock()
	if len(n.replQ) >= replQueueCap {
		n.replQ = n.replQ[1:]
		n.replicaDrops.Add(1)
	}
	n.replQ = append(n.replQ, k)
	n.replMu.Unlock()
	select {
	case n.replWake <- struct{}{}:
	default:
	}
}

// replicateLoop pushes queued fills, up to handoffBatch keys per round,
// until Stop.
func (n *Node) replicateLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-n.replWake:
		}
		for n.ctx.Err() == nil {
			n.replMu.Lock()
			keys := append([]cache.Key(nil), n.replQ[:min(len(n.replQ), handoffBatch)]...)
			n.replQ = n.replQ[len(keys):]
			n.replMu.Unlock()
			if len(keys) == 0 {
				break
			}
			live := n.ring.Load()
			n.reconcile(n.ctx, "replicate", n.groupKeys(keys, func(k cache.Key) []Member {
				return live.Successors(k, n.opts.Replicas)
			}), nil)
		}
	}
}

// ---- anti-entropy ----

// antiEntropyLoop runs AntiEntropyScan on ring-transition kicks and on the
// periodic timer until Stop.
func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-n.aeKick:
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(aeKickDelay):
			}
			// Coalesce any kick that arrived during the debounce window.
			select {
			case <-n.aeKick:
			default:
			}
		case <-t.C:
		}
		n.AntiEntropyScan(n.ctx)
	}
}

// AntiEntropyReport summarizes one scan.
type AntiEntropyReport struct {
	Owned           int // keys this node owns on the live ring
	Held            int // keys this node holds for another live owner
	Underreplicated int // owned keys missing a successor copy, held keys missing on their owner
	Pushed          int // missing copies pushed
	Unverifiable    int // (key, peer) pairs whose presence could not be measured
}

// AntiEntropyScan measures, for every key this node holds, its presence
// where the live ring places it and pushes the missing copies: an owned
// key on each live successor, a key held for another live owner on that
// owner (a fill the owner missed while it was cut off). It sets the
// dsserve_underreplicated_keys gauge to the count found before the pushes;
// the next scan is the one that reports convergence.
func (n *Node) AntiEntropyScan(ctx context.Context) AntiEntropyReport {
	var rep AntiEntropyReport
	defer n.antiScans.Add(1)
	live := n.ring.Load()
	if n.opts.Replicas <= 0 || live.Size() <= 1 {
		n.underreplicated.Store(0)
		return rep
	}
	var keys []cache.Key
	n.srv.RangeCacheKeys(func(k cache.Key) {
		keys = append(keys, k)
		if live.Owner(k).ID == n.self.ID {
			rep.Owned++
		} else {
			rep.Held++
		}
	})
	bySucc := n.groupKeys(keys, func(k cache.Key) []Member {
		if owner := live.Owner(k); owner.ID != n.self.ID {
			return []Member{owner}
		}
		return live.Successors(k, n.opts.Replicas)
	})

	missing := make(map[string][]cache.Key)
	under := make(map[cache.Key]bool)
	for id, keys := range bySucc {
		for start := 0; start < len(keys); start += hasBatch {
			batch := keys[start:min(start+hasBatch, len(keys))]
			req := hasRequest{Keys: make([]string, len(batch))}
			for i, k := range batch {
				req.Keys[i] = k.String()
			}
			var resp hasResponse
			err := ctx.Err()
			if err == nil {
				qctx, cancel := context.WithTimeout(ctx, replPushTimeout)
				err = n.clients[id].PostJSON(qctx, "/internal/has", req, &resp)
				cancel()
			}
			if err == nil && len(resp.Has) != len(batch) {
				err = fmt.Errorf("%d answers to %d keys", len(resp.Has), len(batch))
			}
			if err != nil {
				// The successor's keys stay unverified until the next scan.
				rep.Unverifiable += len(keys) - start
				n.log.Debug("cluster: anti-entropy has query failed", "peer", id, "err", err)
				break
			}
			for i, has := range resp.Has {
				if !has {
					missing[id] = append(missing[id], batch[i])
					under[batch[i]] = true
				}
			}
		}
	}
	rep.Pushed = n.reconcile(ctx, "antientropy", missing, nil).Entries
	rep.Underreplicated = len(under)
	n.underreplicated.Store(int64(rep.Underreplicated))
	if rep.Underreplicated > 0 {
		n.log.Info("cluster: anti-entropy scan found under-replicated keys",
			"owned", rep.Owned, "held", rep.Held, "underreplicated", rep.Underreplicated,
			"pushed", rep.Pushed, "unverifiable", rep.Unverifiable)
	}
	return rep
}

// ---- drain handoff ----

// DrainHandoff announces this node's departure and pushes its cache to the
// keys' next owners. Call it after the HTTP listener stops accepting new
// work and before the worker pool drains; ctx bounds the whole transfer.
func (n *Node) DrainHandoff(ctx context.Context) HandoffReport {
	live := n.ring.Load()
	if live.Size() <= 1 || !live.Has(n.self.ID) {
		return HandoffReport{}
	}
	for _, m := range live.Members() {
		if cl := n.clients[m.ID]; cl != nil {
			if err := cl.PostJSON(ctx, "/internal/departing", departingRequest{Node: n.self.ID}, nil); err != nil {
				n.log.Warn("cluster: departure announcement failed", "peer", m.ID, "err", err)
			}
		}
	}

	// owners groups keys by their owner on the configured ring without
	// self, the members already skipped and the demoted ones. excluded only
	// grows, so re-planning ends after at most one skip per member.
	excluded := map[string]bool{n.self.ID: true}
	owners := func(keys []cache.Key, exclude string) map[string][]cache.Key {
		excluded[exclude] = true
		var alive []Member
		for _, m := range n.full.Members() {
			if !excluded[m.ID] && n.PeerState(m.ID) != "demoted" {
				alive = append(alive, m)
			}
		}
		r, err := NewRing(alive)
		if err != nil {
			return nil // nobody left to receive
		}
		return n.groupKeys(keys, func(k cache.Key) []Member { return []Member{r.Owner(k)} })
	}
	var keys []cache.Key
	n.srv.RangeCacheKeys(func(k cache.Key) { keys = append(keys, k) }) // hottest first
	rep := n.reconcile(ctx, "drain", owners(keys, n.self.ID), owners)
	n.log.Info("cluster: drain handoff complete",
		"peers", rep.Peers, "entries", rep.Entries, "bytes", rep.Bytes,
		"batches", rep.Batches, "failedBatches", rep.FailedBatches)
	return rep
}

// ---- peer-internal endpoints ----

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

// readPeerJSON strictly decodes a peer-internal request body of at most
// limit bytes, answering 413 or 400 itself when it cannot.
func (n *Node) readPeerJSON(w http.ResponseWriter, r *http.Request, limit int64, what string, dst any) bool {
	body, ok := n.readPeer(w, r, limit, what)
	if !ok {
		return false
	}
	if err := service.DecodeStrict(bytes.NewReader(body), dst); err != nil {
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode %s: %w", what, err))
		return false
	}
	return true
}

// handleHandoff imports a framed batch of peer cache entries. A body that
// does not parse as frames is refused whole with a 400: that is also what
// a peer from before the frame format gets. An entry the import rejects is
// skipped, so one entry never fails the batch.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	body, ok := n.readPeer(w, r, maxHandoffBody, "handoff")
	if !ok {
		return
	}
	req, err := parseFrames(body)
	if err != nil {
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode handoff: %w", err))
		return
	}
	imported := 0
	var importedBytes int64
	for _, e := range req.Entries {
		if err := n.srv.ImportCacheEntry(e); err != nil {
			n.log.Warn("cluster: handoff entry rejected", "from", req.From, "key", e.Key, "err", err)
			continue
		}
		imported++
		importedBytes += int64(len(e.Body))
	}
	n.handoffRecvEntries.Add(int64(imported))
	n.handoffRecvBytes.Add(importedBytes)
	n.log.Debug("cluster: handoff received",
		"from", req.From, "reason", req.Reason, "entries", imported, "bytes", importedBytes)
	n.writeJSON(w, handoffResponse{Imported: imported})
}

// handleHas answers which of the asked keys the local cache holds.
func (n *Node) handleHas(w http.ResponseWriter, r *http.Request) {
	var req hasRequest
	if !n.readPeerJSON(w, r, service.MaxBody, "has query", &req) {
		return
	}
	resp := hasResponse{Has: make([]bool, len(req.Keys))}
	for i, ks := range req.Keys {
		k, err := cache.ParseKey(ks)
		resp.Has[i] = err == nil && n.srv.CacheHas(k)
	}
	n.writeJSON(w, resp)
}

// handleDeparting demotes the announcing peer (drain cause: authoritative,
// bypasses the cooldown) so its keys reassign before its listener closes.
func (n *Node) handleDeparting(w http.ResponseWriter, r *http.Request) {
	var req departingRequest
	if !n.readPeerJSON(w, r, service.MaxBody, "departure", &req) {
		return
	}
	if req.Node == "" {
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: departure without a node ID"))
		return
	}
	n.log.Info("cluster: peer announced departure", "peer", req.Node)
	n.demote(req.Node, causeDrain)
	n.writeJSON(w, map[string]any{"ok": true})
}
