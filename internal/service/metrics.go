package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
)

// latencyBounds are the histogram bucket upper bounds, in seconds.
var latencyBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

type histogram struct {
	counts [len0 + 1]int64 // one per bound, plus +Inf
	sum    float64
	n      int64
}

const len0 = 8 // len(latencyBounds); fixed so histogram is an array

func (h *histogram) observe(sec float64) {
	i := sort.SearchFloat64s(latencyBounds, sec)
	h.counts[i]++
	h.sum += sec
	h.n++
}

// sweepOutcome is how a sweep point got its result.
type sweepOutcome uint8

const (
	pointSimulated sweepOutcome = iota // run on the pool
	pointCached                        // served by the cache
	pointCollapsed                     // copied from a neighbour a run witness proved equal
	numSweepOutcomes
)

var sweepOutcomeNames = [numSweepOutcomes]string{"simulated", "cached", "collapsed"}

// Metrics is the observability surface: request counters by route and
// status, per-scheme job latency histograms and sweep point outcomes,
// rendered in the Prometheus text exposition format together with pool and
// cache gauges.
type Metrics struct {
	mu          sync.Mutex
	requests    map[string]int64 // "route|code" -> count
	jobLat      map[string]*histogram
	sweepPoints [numSweepOutcomes]int64
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]int64),
		jobLat:   make(map[string]*histogram),
	}
}

// ObserveRequest counts one finished HTTP request.
func (m *Metrics) ObserveRequest(route string, code int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", route, code)]++
	m.mu.Unlock()
}

// ObserveJob records one executed (non-cached) job's latency under its
// scheme name.
func (m *Metrics) ObserveJob(scheme string, d time.Duration) {
	m.mu.Lock()
	h := m.jobLat[scheme]
	if h == nil {
		h = &histogram{}
		m.jobLat[scheme] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// observeSweepPoint counts one successfully answered sweep point by how
// it got its result.
func (m *Metrics) observeSweepPoint(o sweepOutcome) {
	m.mu.Lock()
	m.sweepPoints[o]++
	m.mu.Unlock()
}

// Resilience carries the circuit-breaker, fault-injection and recovery
// gauges into Render.
type Resilience struct {
	BreakerState   BreakerState
	BreakerOpens   int64
	WatchdogTrips  int64
	InjectedFaults int64
	// RecoveredRuns counts runs completed via ownership reclamation;
	// RecoveryCost totals the quarantine cycles those recoveries charged.
	RecoveredRuns int64
	RecoveryCost  int64
}

// Render writes the exposition text: pool gauges, cache counters, breaker
// and fault-injection state, request totals and latency histograms, with
// label sets sorted for deterministic output.
func (m *Metrics) Render(w io.Writer, pool *Pool, cs cache.Stats, res Resilience) {
	fmt.Fprintf(w, "# HELP dsserve_queue_depth Jobs waiting for a worker.\n# TYPE dsserve_queue_depth gauge\ndsserve_queue_depth %d\n", pool.QueueDepth())
	fmt.Fprintf(w, "# TYPE dsserve_queue_capacity gauge\ndsserve_queue_capacity %d\n", pool.QueueCap())
	fmt.Fprintf(w, "# HELP dsserve_jobs_inflight Jobs currently executing.\n# TYPE dsserve_jobs_inflight gauge\ndsserve_jobs_inflight %d\n", pool.InFlight())
	fmt.Fprintf(w, "# TYPE dsserve_workers gauge\ndsserve_workers %d\n", pool.Workers())
	fmt.Fprintf(w, "# TYPE dsserve_jobs_completed_total counter\ndsserve_jobs_completed_total %d\n", pool.Completed())

	fmt.Fprintf(w, "# TYPE dsserve_cache_entries gauge\ndsserve_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# HELP dsserve_cache_hits_total Requests answered from the content-addressed cache.\n# TYPE dsserve_cache_hits_total counter\ndsserve_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE dsserve_cache_misses_total counter\ndsserve_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# HELP dsserve_cache_dedups_total Concurrent identical requests that piggybacked on an in-flight computation.\n# TYPE dsserve_cache_dedups_total counter\ndsserve_cache_dedups_total %d\n", cs.Dedups)
	fmt.Fprintf(w, "# TYPE dsserve_cache_evictions_total counter\ndsserve_cache_evictions_total %d\n", cs.Evictions)

	fmt.Fprintf(w, "# HELP dsserve_breaker_state Circuit breaker state: 0 closed, 1 half-open, 2 open.\n# TYPE dsserve_breaker_state gauge\ndsserve_breaker_state %d\n", int(res.BreakerState))
	fmt.Fprintf(w, "# TYPE dsserve_breaker_opens_total counter\ndsserve_breaker_opens_total %d\n", res.BreakerOpens)
	fmt.Fprintf(w, "# HELP dsserve_watchdog_trips_total Stall-class job failures (diagnosed deadlocks and livelocks).\n# TYPE dsserve_watchdog_trips_total counter\ndsserve_watchdog_trips_total %d\n", res.WatchdogTrips)
	fmt.Fprintf(w, "# HELP dsserve_injected_faults_total Faults the simulator injected across all executed runs.\n# TYPE dsserve_injected_faults_total counter\ndsserve_injected_faults_total %d\n", res.InjectedFaults)
	fmt.Fprintf(w, "# HELP dsserve_recovered_runs_total Runs completed via PC ownership reclamation after a processor halt.\n# TYPE dsserve_recovered_runs_total counter\ndsserve_recovered_runs_total %d\n", res.RecoveredRuns)
	fmt.Fprintf(w, "# HELP dsserve_recovery_cost_cycles_total Quarantine cycles charged by recoveries (halt detection to reclamation).\n# TYPE dsserve_recovery_cost_cycles_total counter\ndsserve_recovery_cost_cycles_total %d\n", res.RecoveryCost)

	m.mu.Lock()
	defer m.mu.Unlock()

	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# TYPE dsserve_requests_total counter\n")
	for _, k := range keys {
		route, code := k, ""
		if i := strings.LastIndexByte(k, '|'); i >= 0 {
			route, code = k[:i], k[i+1:]
		}
		fmt.Fprintf(w, "dsserve_requests_total{route=%q,code=%q} %d\n", route, code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP dsserve_sweep_points_total Sweep points answered on this node: simulated, served by the cache, or collapsed onto an evaluated point a run witness proved equal.\n# TYPE dsserve_sweep_points_total counter\n")
	for o, name := range sweepOutcomeNames {
		fmt.Fprintf(w, "dsserve_sweep_points_total{outcome=%q} %d\n", name, m.sweepPoints[o])
	}

	schemes := make([]string, 0, len(m.jobLat))
	for s := range m.jobLat {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	fmt.Fprintf(w, "# HELP dsserve_job_latency_seconds Executed job latency by scheme (cache hits excluded).\n# TYPE dsserve_job_latency_seconds histogram\n")
	for _, s := range schemes {
		h := m.jobLat[s]
		cum := int64(0)
		for i, b := range latencyBounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "dsserve_job_latency_seconds_bucket{scheme=%q,le=\"%g\"} %d\n", s, b, cum)
		}
		cum += h.counts[len0]
		fmt.Fprintf(w, "dsserve_job_latency_seconds_bucket{scheme=%q,le=\"+Inf\"} %d\n", s, cum)
		fmt.Fprintf(w, "dsserve_job_latency_seconds_sum{scheme=%q} %g\n", s, h.sum)
		fmt.Fprintf(w, "dsserve_job_latency_seconds_count{scheme=%q} %d\n", s, h.n)
	}
}
