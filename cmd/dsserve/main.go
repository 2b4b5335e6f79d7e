// Command dsserve runs the simulation-and-verification HTTP service: JSON
// endpoints for single runs (/run), dsvet verdicts (/verify) and parameter
// sweeps with Pareto fronts (/sweep), backed by a bounded worker pool with
// queue backpressure and a content-addressed result cache.
//
//	dsserve -addr :8077 -workers 8 -queue 128
//
// Several dsserve processes form one logical service when started with a
// shared membership: each canonical result key has one owning node (via a
// deterministic consistent-hash ring), any node accepts any request and
// forwards it to the owner, and sweeps fan out cluster-wide with work
// stealing:
//
//	dsserve -addr :8077 -node-id a -advertise http://10.0.0.1:8077 \
//	        -peers b=http://10.0.0.2:8077,c=http://10.0.0.3:8077 \
//	        -peer-token secret
//
// Liveness is at GET /healthz (including the node's cluster view),
// Prometheus-style metrics at GET /metrics. On SIGTERM or SIGINT the server
// stops accepting connections, announces its departure to its peers
// (cluster members only), drains queued and in-flight jobs, and exits 0.
// Its cache leaves with it: the keys' next owners recompute them.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/service"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 4, "simulation worker goroutines")
	queue := flag.Int("queue", 64, "job queue capacity (full queue answers 429)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-job timeout")
	cacheSize := flag.Int("cache-size", 1024, "result cache capacity in entries")
	drainWait := flag.Duration("drain-wait", 30*time.Second, "shutdown budget for draining in-flight jobs")

	nodeID := flag.String("node-id", "solo", "this node's stable cluster identity")
	advertise := flag.String("advertise", "", "base URL peers reach this node at (default http://127.0.0.1<addr>)")
	peersSpec := flag.String("peers", "", "other cluster members as id=addr,... (empty: single-node)")
	peerToken := flag.String("peer-token", "", "shared secret authenticating peer-forwarded requests")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant sustained request rate in req/s (0: no rate limit)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant burst capacity (default ceil(rate))")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer liveness probe period (0: no active probing, membership changes only on transport errors)")
	suspectAfter := flag.Int("suspect-after", 3, "consecutive probe failures that demote a suspect peer")
	rejoinAfter := flag.Int("rejoin-after", 2, "consecutive probe successes that readmit a demoted peer")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	self := cluster.Member{ID: *nodeID, Addr: *advertise}
	if self.Addr == "" {
		a := *addr
		if strings.HasPrefix(a, ":") {
			a = "127.0.0.1" + a
		}
		self.Addr = "http://" + a
	}
	peers, err := cluster.ParsePeers(*peersSpec)
	if err != nil {
		service.Fatal(os.Stderr, "dsserve", err)
		os.Exit(2)
	}

	node, err := cluster.New(cluster.Options{
		Self:          self.ID,
		Members:       append(peers, self),
		PeerToken:     *peerToken,
		Tenant:        cluster.TenantPolicy{Rate: *tenantRate, Burst: *tenantBurst},
		ProbeInterval: *probeInterval,
		SuspectAfter:  *suspectAfter,
		RejoinAfter:   *rejoinAfter,
		Logger:        log,
	}, service.Options{
		Workers:    *workers,
		QueueCap:   *queue,
		JobTimeout: *timeout,
		CacheSize:  *cacheSize,
		Logger:     log,
	})
	if err != nil {
		service.Fatal(os.Stderr, "dsserve", err)
		os.Exit(2)
	}
	srv := node.Server()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           node.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("dsserve listening", "addr", *addr, "workers", *workers, "queue", *queue,
			"node", self.ID, "ringVersion", node.Ring().Version(), "members", node.Ring().Size())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// ListenAndServe only returns on failure here (shutdown happens in
		// the other branch), so this is a bind error or similar.
		service.Fatal(os.Stderr, "dsserve", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("signal received; draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		service.Fatal(os.Stderr, "dsserve", err)
		os.Exit(1)
	}
	node.Depart(shutCtx)
	node.Stop()
	if err := srv.Drain(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
		service.Fatal(os.Stderr, "dsserve", err)
		os.Exit(1)
	}
	log.Info("drained; exiting")
}
