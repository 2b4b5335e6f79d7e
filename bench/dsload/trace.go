package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/csrd-repro/datasync/internal/cluster"
	"github.com/csrd-repro/datasync/internal/service"
)

// span is one timed interval. Name is client (the load generator's view),
// server (the entry node's handler), owner (the handler of a node a
// request was forwarded to), peer (peer-internal traffic such as replica
// pushes), or replay:<layer> (a sequential re-run of one layer function
// on a captured request, made after the measurement).
type span struct {
	Name  string `json:"name"`
	Route string `json:"route"`
	Node  string `json:"node,omitempty"`
	Req   int64  `json:"req"` // dsload request ID; 0 when unknown
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is armed only for
// the traced half of a traced run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu       sync.Mutex
	spans    []span
	inflight map[uint64][]int64 // correlation key -> entry request IDs in flight
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: make(map[uint64][]int64)}
}

func (t *tracer) since(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) clientSpan(o *op, start, end time.Time) span {
	return span{Name: "client", Route: o.kind.path(), Req: o.id, Start: t.since(start), End: t.since(end)}
}

// wrap records a span around a node's handler. The entry hop carries the
// request ID header; a forwarded hop does not, so it is matched to the
// entry request in flight with the same correlation key (the same body,
// or for a sweep sub-grid the same workload and scheme).
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		sp := span{Route: r.URL.Path, Node: node}
		switch {
		case strings.HasPrefix(r.URL.Path, "/internal/"):
			sp.Name = "peer"
		case r.Header.Get(cluster.HeaderForwarded) != "":
			sp.Name = "owner"
			sp.Req = t.lookup(corrKey(r.URL.Path, body))
		default:
			sp.Name = "server"
			sp.Req, _ = strconv.ParseInt(r.Header.Get(headerRequestID), 10, 64)
			k := corrKey(r.URL.Path, body)
			t.register(k, sp.Req)
			defer t.unregister(k, sp.Req)
		}
		h.ServeHTTP(w, r)
		sp.Start, sp.End = t.since(start), t.since(time.Now())
		t.add(sp)
	})
}

func corrKey(path string, body []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	if path == "/sweep" {
		var req service.SweepRequest
		if json.Unmarshal(body, &req) == nil {
			req.Grid, req.Points = service.SweepGrid{}, nil
			body = mustJSON(req)
		}
	}
	h.Write(body)
	return h.Sum64()
}

func (t *tracer) register(k uint64, id int64) {
	t.mu.Lock()
	t.inflight[k] = append(t.inflight[k], id)
	t.mu.Unlock()
}

func (t *tracer) unregister(k uint64, id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.inflight[k]
	for i, x := range ids {
		if x == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = ids
	}
}

func (t *tracer) lookup(k uint64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ids := t.inflight[k]; len(ids) > 0 {
		return ids[0]
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- per-layer metrics ----

// reqSpans are one request's in-band spans.
type reqSpans struct {
	class  string
	client *span
	server *span
	owners []span
}

// group joins the in-band spans by request ID.
func group(spans []span, kept []caught) map[int64]*reqSpans {
	reqs := make(map[int64]*reqSpans, len(kept))
	for _, c := range kept {
		reqs[c.o.id] = &reqSpans{class: classOf(c)}
	}
	for i := range spans {
		s := &spans[i]
		r := reqs[s.Req]
		if r == nil {
			continue
		}
		switch s.Name {
		case "client":
			r.client = s
		case "server":
			r.server = s
		case "owner":
			r.owners = append(r.owners, *s)
		}
	}
	return reqs
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
		} else if x.End > hi {
			hi = x.End
		}
	}
	return time.Duration(total + hi - lo)
}

// forwarded reports whether a keyed request was served by another node.
func (r *reqSpans) forwarded() bool { return r.class != "/sweep" && len(r.owners) > 0 }

// handler is the serving node's handler time: the owner's for a forwarded
// request, the entry node's otherwise.
func (r *reqSpans) handler() time.Duration {
	if r.forwarded() {
		return r.owners[0].dur()
	}
	return r.server.dur()
}

// traceRun is everything a traced run measured.
type traceRun struct {
	ref, traced phaseResult // untraced and traced halves
	stolen      float64     // share of the CPU time asked for over both halves that was stolen
	speed       float64     // reference kernel's speed around them (calibrate.go)
	scr         *scraper
	rp          *replayer
	redundant   float64
}

// inband is one request class's in-band durations in µs, one entry per
// request whose client and entry spans were both recorded; owner and hop
// only for requests forwarded to another node.
type inband struct{ client, transport, entry, owner, hop, handler []float64 }

func inbandByClass(reqs map[int64]*reqSpans) map[string]*inband {
	by := make(map[string]*inband)
	for _, r := range reqs {
		if r.client == nil || r.server == nil {
			continue
		}
		b := by[r.class]
		if b == nil {
			b = &inband{}
			by[r.class] = b
		}
		b.client = append(b.client, us(r.client.dur()))
		b.transport = append(b.transport, us(r.client.dur()-r.server.dur()))
		b.entry = append(b.entry, us(r.server.dur()))
		b.handler = append(b.handler, us(r.handler()))
		if r.forwarded() {
			b.owner = append(b.owner, us(r.owners[0].dur()))
			b.hop = append(b.hop, us(r.server.dur()-r.owners[0].dur()))
		}
	}
	return by
}

func (tr *traceRun) layerMetrics(spans []span) map[string]float64 {
	m := make(map[string]float64)
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload never reached
	}
	by := inbandByClass(group(spans, tr.traced.kept))
	var transport, owner, hop []float64
	for _, b := range by {
		transport = append(transport, b.transport...)
		owner = append(owner, b.owner...)
		hop = append(hop, b.hop...)
	}
	handler := func(classes ...string) []float64 {
		var xs []float64
		for _, c := range classes {
			if b := by[c]; b != nil {
				xs = append(xs, b.handler...)
			}
		}
		return xs
	}
	m["service.transport_us"] = median(transport)
	m["service.run_handler_us"] = median(handler("/run hit", "/run miss"))
	m["service.sweep_handler_ms"] = median(handler("/sweep")) / 1000
	m["service.compile_handler_ms"] = median(handler("/compile")) / 1000
	m["service.verify_handler_ms"] = median(handler("/verify")) / 1000
	m["cluster.forwarded_handler_us"] = median(owner)
	m["cluster.hop_overhead_us"] = median(hop)
	if tr.traced.done > 0 {
		m["service.resp_bytes"] = float64(tr.traced.respBytes) / float64(tr.traced.done)
	}

	pooled := func(layer string) []float64 {
		var xs []float64
		for _, byLayer := range tr.rp.durs {
			xs = append(xs, byLayer[layer]...)
		}
		return xs
	}
	m["service.decode_us"] = median(pooled("service.decode"))
	m["workloads.build_us"] = median(pooled("workloads.build"))
	m["lang.parse_us"] = median(pooled("lang.parse"))
	m["cache.key_us"] = median(pooled("cache.key"))
	m["service.encode_us"] = median(pooled("service.encode"))
	m["codegen.run_ms"] = median(pooled("codegen.run")) / 1000
	m["codegen.plan_us"] = median(pooled("codegen.plan"))
	m["deps.enforced_us"] = median(pooled("deps.enforced"))
	m["frontend.lower_us"] = median(pooled("frontend.lower"))
	m["verify.static_ms"] = median(pooled("verify.static")) / 1000
	m["cache.sweep_keys_ms"] = median(pooled("cache.sweep_keys")) / 1000
	if tr.rp.runNs > 0 {
		m["sim.cycles_per_s"] = float64(tr.rp.cycles) / time.Duration(tr.rp.runNs).Seconds()
	}
	m["sim.redundant_share"] = tr.redundant

	s := tr.scr
	hits, _ := s.delta("dsserve_cache_hits_total")
	misses, _ := s.delta("dsserve_cache_misses_total")
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	m["cache.dedups"], _ = s.delta("dsserve_cache_dedups_total")
	m["cache.evictions"], _ = s.delta("dsserve_cache_evictions_total")
	jobs, perNode := s.delta("dsserve_jobs_completed_total")
	m["service.jobs_completed"] = jobs
	if jobs > 0 {
		hi := 0.0
		for _, j := range perNode {
			hi = max(hi, j)
		}
		m["cluster.job_imbalance"] = hi / (jobs / float64(len(perNode)))
	}
	jobSec, _ := s.delta("dsserve_job_latency_seconds_sum")
	jobN, _ := s.delta("dsserve_job_latency_seconds_count")
	if jobN > 0 {
		m["service.pool_job_ms_mean"] = jobSec / jobN * 1000
	}
	m["service.pool_queue_depth_mean"] = mean(s.depths)
	for _, d := range s.depths {
		m["service.pool_queue_depth_max"] = max(m["service.pool_queue_depth_max"], d)
	}
	m["service.rejected_429"] = float64(tr.traced.rejected)
	keyed, sweeps := 0, 0
	for _, c := range tr.traced.kept {
		if c.o.kind == kindSweep {
			sweeps++
		} else {
			keyed++
		}
	}
	fwd, _ := s.delta("dsserve_peer_forwards_total")
	if keyed > 0 {
		m["cluster.forward_share"] = fwd / float64(keyed)
	}
	steals, _ := s.delta("dsserve_steals_total")
	if sweeps > 0 {
		m["cluster.steals_per_sweep"] = steals / float64(sweeps)
	}
	m["cluster.peer_errors"], _ = s.delta("dsserve_peer_errors_total")
	m["cluster.replica_pushes"], _ = s.delta("dsserve_replica_pushes_total")
	m["cluster.replica_drops"], _ = s.delta("dsserve_replica_dropped_total")
	m["cluster.replica_hits"], _ = s.delta("dsserve_replica_hits_total")

	ref := tr.ref
	if ref.elapsed > 0 {
		m["loadgen.achieved_rps"] = float64(ref.done) / ref.elapsed.Seconds()
	}
	m["loadgen.wake_late_p99_ms"] = percentile(ref.wakeLate, 0.99)
	if ref.done > 0 {
		m["loadgen.overdue_share"] = float64(ref.overdue) / float64(ref.done)
	}
	m["loadgen.latency_p50_ms"] = percentile(ref.lat, 0.50)
	m["loadgen.latency_p90_ms"] = percentile(ref.lat, 0.90)
	m["loadgen.latency_p99_ms"] = percentile(ref.lat, 0.99)
	m["loadgen.latency_p999_ms"] = percentile(ref.lat, 0.999)
	m["loadgen.samples"] = float64(len(ref.lat))
	if p50 := median(ref.lat); p50 > 0 {
		m["loadgen.trace_overhead_pct"] = (median(tr.traced.lat) - p50) / p50 * 100
	}
	m["loadgen.steal_share"] = tr.stolen
	m["loadgen.cpu_speed"] = tr.speed
	return m
}

// ---- the trace file ----

// row is one line of a where-the-time-goes breakdown: a median in µs over
// the given number of samples, and how many times the layer runs on the
// server's path for one request of the class (0: not on it, e.g. the
// client-side total).
type row struct {
	Part    string  `json:"part"`
	Us      float64 `json:"us"`
	Samples int     `json:"samples"`
	Times   int     `json:"times_on_path,omitempty"`
}

// onRunPath counts how often a replayed layer runs while the cluster
// serves one /run: the router decodes the body and computes its key
// (build, scheme, canon hash) to find the owner, then the handler decodes,
// builds and hashes again before the cache lookup.
var onRunPath = map[string]int{
	"service.decode": 2, "workloads.build": 2, "lang.parse": 2, "cache.key": 2,
	"service.encode": 1, "codegen.run": 1,
}

// breakdown is, per request class, the in-band medians and the replayed
// layer medians. For /run the residual is the serving handler's median
// minus every on-path layer median times its count: the time no replayed
// layer explains (routing, cache locks, pool queue wait, logging).
func (tr *traceRun) breakdown(spans []span) map[string][]row {
	by := inbandByClass(group(spans, tr.traced.kept))
	out := make(map[string][]row)
	for class, b := range by {
		rows := []row{
			{Part: "end to end (client)", Us: median(b.client), Samples: len(b.client)},
			{Part: "transport and client (client - entry handler)", Us: median(b.transport), Samples: len(b.transport)},
			{Part: "entry handler", Us: median(b.entry), Samples: len(b.entry)},
		}
		if len(b.hop) > 0 {
			rows = append(rows, row{Part: "peer hop (entry - owner handler)", Us: median(b.hop), Samples: len(b.hop)})
		}
		handler := median(b.handler)
		rows = append(rows, row{Part: "serving handler", Us: handler, Samples: len(b.handler)})
		layers := make([]string, 0, len(tr.rp.durs[class]))
		for l := range tr.rp.durs[class] {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		explained := 0.0
		for _, l := range layers {
			xs := tr.rp.durs[class][l]
			r := row{Part: "replay " + l, Us: median(xs), Samples: len(xs)}
			if strings.HasPrefix(class, "/run") {
				r.Times = onRunPath[l]
				explained += float64(r.Times) * r.Us
			}
			rows = append(rows, r)
		}
		if strings.HasPrefix(class, "/run") {
			rows = append(rows, row{Part: "residual (serving handler - on-path layers)", Us: handler - explained, Samples: len(b.handler)})
		}
		if class == "/sweep" && len(tr.rp.sweepCPU) > 0 {
			rows = append(rows, row{Part: "simulation CPU per sweep (sum of replayed codegen.run)", Us: median(tr.rp.sweepCPU), Samples: len(tr.rp.sweepCPU)})
		}
		out[class] = rows
	}
	return out
}

// treeSpan is one span of a request tree in the trace file.
type treeSpan struct {
	Name    string  `json:"name"`
	Node    string  `json:"node,omitempty"`
	Parent  int     `json:"parent"` // index in the request's span list, -1 for the root
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"` // duration minus the part its children cover
}

type requestTree struct {
	Req   int64      `json:"req"`
	Class string     `json:"class"`
	Spans []treeSpan `json:"spans"`
}

// trees renders up to perClass replayed requests of each class as span
// trees: client -> server -> owner, with the replay spans under the client.
func trees(spans []span, kept []caught, perClass int) []requestTree {
	classes := make(map[int64]string, len(kept))
	for _, c := range kept {
		classes[c.o.id] = classOf(c)
	}
	byReq := make(map[int64][]span)
	replayed := make(map[int64]bool)
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		byReq[s.Req] = append(byReq[s.Req], s)
		if strings.HasPrefix(s.Name, "replay:") {
			replayed[s.Req] = true
		}
	}
	ids := make([]int64, 0, len(replayed))
	for id := range replayed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	count := make(map[string]int)
	var out []requestTree
	for _, id := range ids {
		class := classes[id]
		if count[class] >= perClass {
			continue
		}
		count[class]++
		ss := byReq[id]
		sort.SliceStable(ss, func(i, j int) bool { return rank(ss[i].Name) < rank(ss[j].Name) })
		t := requestTree{Req: id, Class: class}
		parent := map[string]int{}
		for i, s := range ss {
			p := -1
			switch {
			case s.Name == "server":
				p = idx(parent, "client")
			case s.Name == "owner":
				p = idx(parent, "server")
			case strings.HasPrefix(s.Name, "replay:"):
				p = idx(parent, "client")
			}
			if _, ok := parent[s.Name]; !ok {
				parent[s.Name] = i
			}
			var children []span
			for _, c := range ss {
				if (s.Name == "client" && c.Name == "server") || (s.Name == "server" && c.Name == "owner") {
					children = append(children, c)
				}
			}
			t.Spans = append(t.Spans, treeSpan{
				Name: s.Name, Node: s.Node, Parent: p,
				StartUs: us(time.Duration(s.Start)), DurUs: us(s.dur()),
				SelfUs: us(s.dur() - covered(children)),
			})
		}
		out = append(out, t)
	}
	return out
}

func rank(name string) int {
	switch name {
	case "client":
		return 0
	case "server":
		return 1
	case "owner":
		return 2
	}
	return 3
}

func idx(m map[string]int, name string) int {
	if i, ok := m[name]; ok {
		return i
	}
	return -1
}

// writeTrace writes the breakdown and sample span trees as JSON.
func writeTrace(path, workload string, seed int64, bd map[string][]row, ts []requestTree) error {
	b, err := json.MarshalIndent(struct {
		Workload  string           `json:"workload"`
		Seed      int64            `json:"seed"`
		Breakdown map[string][]row `json:"breakdown"`
		Requests  []requestTree    `json:"requests"`
	}{workload, seed, bd, ts}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
