package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
)

// jobBounds are the job latency histogram's bucket upper bounds, in
// seconds.
var jobBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// requestBounds are the request duration histogram's bucket upper bounds,
// in seconds. They start at 50µs: a cache hit is answered in well under a
// millisecond.
var requestBounds = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

type histogram struct {
	bounds []float64
	counts []int64 // one per bound, plus +Inf
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(sec float64) {
	h.counts[sort.SearchFloat64s(h.bounds, sec)]++
	h.sum += sec
	h.n++
}

// render writes the histogram's series under one label.
func (h *histogram) render(w io.Writer, name, label, value string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.n)
}

// requestSeries is one request counter series.
type requestSeries struct {
	route string
	code  int
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
// status, request duration histograms by route, per-scheme job latency
// histograms and sweep point outcomes, rendered in the Prometheus text
// exposition format together with pool and cache gauges.
type Metrics struct {
	mu          sync.Mutex
	requests    map[requestSeries]int64
	requestLat  map[string]*histogram // by route label
	jobLat      map[string]*histogram
	sweepPoints [numSweepOutcomes]int64
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   make(map[requestSeries]int64),
		requestLat: make(map[string]*histogram),
		jobLat:     make(map[string]*histogram),
	}
}

// ObserveRequest counts one finished HTTP request and records its
// duration. route must come from a bounded set (routeLabel).
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[requestSeries{route, code}]++
	h := m.requestLat[route]
	if h == nil {
		h = newHistogram(requestBounds)
		m.requestLat[route] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// ObserveJob records one executed (non-cached) job's latency under its
// scheme name, one of SchemeNames: the built scheme's name embeds the
// client's X, K and G and would add a series per value.
func (m *Metrics) ObserveJob(scheme string, d time.Duration) {
	m.mu.Lock()
	h := m.jobLat[scheme]
	if h == nil {
		h = newHistogram(jobBounds)
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

// Resilience carries the fault-injection and recovery counters into Render.
type Resilience struct {
	WatchdogTrips  int64
	InjectedFaults int64
	// RecoveredRuns counts runs completed via ownership reclamation;
	// RecoveryCost totals the quarantine cycles those recoveries charged.
	RecoveredRuns int64
	RecoveryCost  int64
}

// Render writes the exposition text: pool gauges, result cache and shape
// table counters, fault-injection and recovery counters, request totals
// and latency histograms, with label sets sorted for deterministic output.
func (m *Metrics) Render(w io.Writer, pool *Pool, cs, shapes cache.Stats, res Resilience) {
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
	fmt.Fprintf(w, "# HELP dsserve_shape_hits_total Cache misses whose workload reused a Shape (serial image and dependence summary) from the shape table.\n# TYPE dsserve_shape_hits_total counter\ndsserve_shape_hits_total %d\n", shapes.Hits+shapes.Dedups)
	fmt.Fprintf(w, "# HELP dsserve_shape_misses_total Cache misses whose workload started a new Shape in the shape table.\n# TYPE dsserve_shape_misses_total counter\ndsserve_shape_misses_total %d\n", shapes.Misses)
	fmt.Fprintf(w, "# TYPE dsserve_shape_entries gauge\ndsserve_shape_entries %d\n", shapes.Entries)

	fmt.Fprintf(w, "# HELP dsserve_watchdog_trips_total Stall-class job failures (diagnosed deadlocks and livelocks).\n# TYPE dsserve_watchdog_trips_total counter\ndsserve_watchdog_trips_total %d\n", res.WatchdogTrips)
	fmt.Fprintf(w, "# HELP dsserve_injected_faults_total Faults the simulator injected across all executed runs.\n# TYPE dsserve_injected_faults_total counter\ndsserve_injected_faults_total %d\n", res.InjectedFaults)
	fmt.Fprintf(w, "# HELP dsserve_recovered_runs_total Runs completed via PC ownership reclamation after a processor halt.\n# TYPE dsserve_recovered_runs_total counter\ndsserve_recovered_runs_total %d\n", res.RecoveredRuns)
	fmt.Fprintf(w, "# HELP dsserve_recovery_cost_cycles_total Quarantine cycles charged by recoveries (halt detection to reclamation).\n# TYPE dsserve_recovery_cost_cycles_total counter\ndsserve_recovery_cost_cycles_total %d\n", res.RecoveryCost)

	m.mu.Lock()
	defer m.mu.Unlock()

	keys := make([]requestSeries, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# TYPE dsserve_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "dsserve_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP dsserve_request_duration_seconds Request duration by route, measured by the handler of the node that served the request.\n# TYPE dsserve_request_duration_seconds histogram\n")
	for _, route := range sortedKeys(m.requestLat) {
		m.requestLat[route].render(w, "dsserve_request_duration_seconds", "route", route)
	}

	fmt.Fprintf(w, "# HELP dsserve_sweep_points_total Sweep points answered on this node: simulated, served by the cache, or collapsed onto an evaluated point a run witness proved equal.\n# TYPE dsserve_sweep_points_total counter\n")
	for o, name := range sweepOutcomeNames {
		fmt.Fprintf(w, "dsserve_sweep_points_total{outcome=%q} %d\n", name, m.sweepPoints[o])
	}

	fmt.Fprintf(w, "# HELP dsserve_job_latency_seconds Executed job latency by scheme (cache hits excluded).\n# TYPE dsserve_job_latency_seconds histogram\n")
	for _, s := range sortedKeys(m.jobLat) {
		m.jobLat[s].render(w, "dsserve_job_latency_seconds", "scheme", s)
	}
}

func sortedKeys(m map[string]*histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
