package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/service"
)

// stack is an in-process dsserve deployment of one or three nodes on
// loopback TCP, configured as cmd/dsserve ships: service.Options defaults,
// a 2s probe interval, one replica per fill and a peer token. Request logs
// are formatted as dsserve formats them and then discarded.
type stack struct {
	nodes   []*cluster.Node
	servers []*http.Server
	bases   []string
	serving sync.WaitGroup
}

const peerToken = "dsload-peer-token"

// boot starts n nodes. wrap, when non-nil, wraps each node's handler (the
// tracer's server spans).
func boot(n int, wrap func(node string, h http.Handler) http.Handler) (*stack, error) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	st := &stack{}
	listeners := make([]net.Listener, n)
	members := make([]cluster.Member, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()}
		st.bases = append(st.bases, members[i].Addr)
	}
	for i := range listeners {
		node, err := cluster.New(cluster.Options{
			Self:          members[i].ID,
			Members:       members,
			PeerToken:     peerToken,
			ProbeInterval: 2 * time.Second,
			Replicas:      1,
			Logger:        log,
		}, service.Options{Logger: log})
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			st.close()
			return nil, err
		}
		var h http.Handler = node.Handler()
		if wrap != nil {
			h = wrap(members[i].ID, h)
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		st.nodes = append(st.nodes, node)
		st.servers = append(st.servers, hs)
		st.serving.Add(1)
		go func(ln net.Listener) {
			defer st.serving.Done()
			if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("serve", "err", err)
			}
		}(listeners[i])
	}
	return st, nil
}

// close stops the servers and the nodes' background loops, drains the
// pools, and waits for every serving goroutine to return.
func (st *stack) close() {
	for _, hs := range st.servers {
		hs.Close()
	}
	st.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range st.nodes {
		n.Stop()
		_ = n.Server().Drain(ctx) // jobs are bounded by the pool's own timeout
	}
	// Peer clients share the default transport; drop its idle
	// connections so a later stack starts from the same state.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
