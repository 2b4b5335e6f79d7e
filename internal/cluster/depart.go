package cluster

// Departure.
//
// On SIGTERM a node announces its departure (/internal/departing), and
// every peer that receives the announcement demotes it at once. Without it,
// each peer's first forward to the closed listener would spend the peer
// client's retry backoff before falling back to serving the key itself.
// Nothing else leaves with the node: its cache entries are not handed to
// anyone. A cache key names exactly one answer (DESIGN.md §13), so the
// keys' next owners recompute the same bytes on their next request, and a
// lost entry costs one computation, never a wrong answer.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"github.com/csrd-repro/datasync/internal/service"
)

type departingRequest struct {
	Node string `json:"node"`
}

// Depart announces this node's departure to every member of its live ring.
// Call it after the HTTP listener stops accepting new work and before the
// worker pool drains; ctx bounds the announcements. A peer that misses the
// announcement demotes this node on its first failed forward instead.
func (n *Node) Depart(ctx context.Context) {
	live := n.ring.Load()
	if live.Size() <= 1 || !live.Has(n.self.ID) {
		return
	}
	for _, m := range live.Members() {
		if cl := n.clients[m.ID]; cl != nil {
			if err := cl.PostJSON(ctx, "/internal/departing", departingRequest{Node: n.self.ID}, nil); err != nil {
				n.log.Warn("cluster: departure announcement failed", "peer", m.ID, "err", err)
			}
		}
	}
	n.log.Info("cluster: departure announced", "peers", live.Size()-1)
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
