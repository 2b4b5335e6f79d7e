package cluster

// Drain handoff.
//
// Cache entries cross nodes in exactly two ways. An entry node keeps the
// owner's relayed hit answer for a key it forwarded (keepRelayed, node.go),
// and a draining node hands its cache to the keys' next owners (here).
// Nothing copies a fresh fill to another node and nothing repairs a missing
// copy: a cache key names exactly one answer (DESIGN.md §13), so a node
// without the entry recomputes the same bytes. A lost copy costs one
// computation, never a wrong answer.
//
// On SIGTERM a node announces its departure (/internal/departing; receivers
// demote it at once) and pushes every held key, hottest first, to its owner
// on the ring without itself. A target that fails or is demoted mid-stream
// is skipped and its keys re-planned onto their next owner: the handoff
// moves cache provenance, never correctness, so it must not spend the
// shutdown deadline on a dead peer. A failed batch never demotes its
// target: the prober owns liveness. Entries are exported at push time, and
// a key evicted before its push is skipped.

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
	// handoffTimeout bounds one /internal/handoff POST, so a hung peer
	// costs the drain one batch, not its deadline.
	handoffTimeout = 5 * time.Second
)

type handoffResponse struct {
	Imported int `json:"imported"`
}

type departingRequest struct {
	Node string `json:"node"`
}

// HandoffReport summarizes one drain handoff.
type HandoffReport struct {
	Peers         int   `json:"peers"`         // distinct receiving members
	Entries       int   `json:"entries"`       // entries delivered
	Bytes         int64 `json:"bytes"`         // compact answer bytes delivered
	Batches       int   `json:"batches"`       // batches delivered
	FailedBatches int   `json:"failedBatches"` // batches lost (skipped, not fatal)
}

// reconcile delivers each planned key to the member it is planned for:
// plan maps member IDs to keys in push order. Members are visited in ID
// order, each in handoffBatch-sized /internal/handoff POSTs. A member that
// fails a batch or is demoted mid-stream gets nothing more; its remaining
// keys go to replan, with that member to exclude, and are lost when replan
// finds nobody to receive them.
func (n *Node) reconcile(ctx context.Context, plan map[string][]cache.Key,
	replan func(keys []cache.Key, exclude string) map[string][]cache.Key) HandoffReport {
	var rep HandoffReport
	lose := func(keys []cache.Key) {
		rep.FailedBatches += (len(keys) + handoffBatch - 1) / handoffBatch
	}
	skip := func(id string, rest []cache.Key) {
		next := replan(rest, id)
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
				n.log.Warn("cluster: handoff target demoted mid-stream; skipping it",
					"peer", id, "remaining", len(keys)-start)
				skip(id, keys[start:])
				break
			}
			end := min(start+handoffBatch, len(keys))
			req := HandoffRequest{From: n.self.ID, Reason: "drain", Entries: make([]service.CacheEntry, 0, end-start)}
			for _, k := range keys[start:end] {
				if e, ok := n.srv.ExportCacheEntry(k); ok {
					req.Entries = append(req.Entries, e)
				}
			}
			if len(req.Entries) == 0 {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, handoffTimeout)
			err := cl.PostBody(pctx, "/internal/handoff", handoffContentType, req.frames(), nil)
			cancel()
			if err != nil {
				rep.FailedBatches++
				n.log.Warn("cluster: handoff batch failed; skipping the target",
					"peer", id, "entries", len(req.Entries), "err", err)
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
	n.handoffSentEntries.Add(int64(rep.Entries))
	n.handoffSentBytes.Add(rep.Bytes)
	return rep
}

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
		plan := make(map[string][]cache.Key)
		for _, k := range keys {
			id := r.Owner(k).ID
			plan[id] = append(plan[id], k)
		}
		return plan
	}
	var keys []cache.Key
	n.srv.RangeCacheKeys(func(k cache.Key) { keys = append(keys, k) }) // hottest first
	rep := n.reconcile(ctx, owners(keys, n.self.ID), owners)
	n.log.Info("cluster: drain handoff complete",
		"peers", rep.Peers, "entries", rep.Entries, "bytes", rep.Bytes,
		"batches", rep.Batches, "failedBatches", rep.FailedBatches)
	return rep
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

// handleDeparting demotes the announcing peer (drain cause: authoritative,
// bypasses the cooldown) so its keys reassign before its listener closes.
func (n *Node) handleDeparting(w http.ResponseWriter, r *http.Request) {
	var req departingRequest
	body, ok := n.readPeer(w, r, service.MaxBody, "departure")
	if !ok {
		return
	}
	if err := service.DecodeStrict(bytes.NewReader(body), &req); err != nil {
		n.writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode departure: %w", err))
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
