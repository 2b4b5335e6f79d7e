package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker count (default 4).
	Workers int
	// QueueCap is the job queue capacity (default 64). A full queue answers
	// 429 with a Retry-After hint.
	QueueCap int
	// JobTimeout bounds one job's context (default 30s).
	JobTimeout time.Duration
	// CacheSize is the result cache capacity in entries (default 1024).
	CacheSize int
	// Logger receives structured request logs (default: slog.Default).
	Logger *slog.Logger
	// HealthInfo, when set, contributes extra fields to the /healthz body
	// (the cluster layer reports node ID, ring version and peer liveness
	// through it). Keys that collide with the built-in fields are ignored.
	HealthInfo func() map[string]any
	// MetricsAppend, when set, writes extra Prometheus exposition text after
	// the built-in metrics (the cluster layer appends peer-forward, steal
	// and tenant-shed counters through it).
	MetricsAppend func(w io.Writer)
	// Degraded, when set, lets an embedding layer mark the node unhealthy:
	// when it returns true, /healthz answers 503 with status "degraded" and
	// the returned reason (the cluster layer reports a majority of peers
	// demoted this way, so load balancers stop routing to a minority
	// partition). Draining takes precedence.
	Degraded func() (bool, string)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 30 * time.Second
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Server evaluates synchronization programs over the bounded pool with the
// content-addressed cache in front.
type Server struct {
	opts  Options
	pool  *Pool
	cache *cache.Cache
	// shapes maps a workload's shapeKey to its codegen.Shape, the run
	// invariants a cache miss would otherwise compute again (seedShape).
	shapes *cache.Cache
	// memo maps a keyed request body's digest (bodyDigest) to its
	// canonical key, so a repeated body skips decode, build and canon
	// hashing (Prepare). It holds CacheSize keys.
	memo     *bodyMemo
	metrics  *Metrics
	log      *slog.Logger
	draining atomic.Bool

	// watchdogTrips counts stall-class job failures (diagnosed deadlocks
	// and livelocks); injectedFaults totals the faults the simulator
	// actually injected across runs; recoveredRuns counts runs that
	// completed only because ownership reclamation healed a halted
	// processor, and recoveryCost totals the quarantine cycles those
	// recoveries charged. All feed /metrics.
	watchdogTrips  atomic.Int64
	injectedFaults atomic.Int64
	recoveredRuns  atomic.Int64
	recoveryCost   atomic.Int64

	// simRun executes one simulation; tests substitute it to model slow or
	// failing jobs deterministically.
	simRun func(w *codegen.Workload, sch codegen.Scheme, cfg sim.Config) (codegen.Result, error)
}

// NewServer builds a Server and starts its worker pool.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		opts:    opts,
		pool:    NewPool(opts.Workers, opts.QueueCap, opts.JobTimeout),
		cache:   cache.New(opts.CacheSize),
		shapes:  cache.New(shapeTableSize),
		memo:    newBodyMemo(opts.CacheSize),
		metrics: NewMetrics(),
		log:     opts.Logger,
		simRun:  codegen.Run,
	}
}

// Pool exposes the worker pool (for drain and introspection).
func (s *Server) Pool() *Pool { return s.pool }

// Drain marks the server draining (healthz turns 503), stops accepting
// jobs, and waits for queued and in-flight jobs to finish or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.Drain(ctx)
}

// Handler returns the routed HTTP handler with request logging attached.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /verify", s.handleVerify)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logged(mux)
}

// ---- request/response types ----

// RunRequest asks for one simulation: workload x scheme x machine.
type RunRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Scheme   SchemeSpec   `json:"scheme"`
	Config   ConfigSpec   `json:"config"`
}

// RunResponse is one measured run. Cached reports whether the result came
// from the content-addressed cache (including a singleflight piggyback);
// Key is the canonical content address.
type RunResponse struct {
	Workload     string            `json:"workload"`
	Scheme       string            `json:"scheme"`
	Key          string            `json:"key"`
	Cached       bool              `json:"cached"`
	SerialCycles int64             `json:"serialCycles"`
	Cycles       int64             `json:"cycles"`
	Speedup      float64           `json:"speedup"`
	Utilization  float64           `json:"utilization"`
	SyncOps      int64             `json:"syncOps"`
	WaitSync     int64             `json:"waitSyncCycles"`
	BusTx        int64             `json:"busBroadcasts"`
	BusSaved     int64             `json:"busSaved"`
	ModuleAcc    int64             `json:"moduleAccesses"`
	Polls        int64             `json:"polls"`
	Foot         codegen.Footprint `json:"footprint"`
	// Recovered reports that the run completed only because ownership
	// reclamation healed a halted processor; Recovery carries the report.
	Recovered bool                `json:"recovered,omitempty"`
	Recovery  *sim.RecoveryReport `json:"recovery,omitempty"`
	Stats     sim.Stats           `json:"stats"`
}

func (r RunResponse) decorated(key cache.Key, hit bool) RunResponse {
	r.Key, r.Cached = key.String(), hit
	return r
}

// VerifyRequest asks for a dsvet verdict on one workload x scheme pair.
type VerifyRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Scheme   SchemeSpec   `json:"scheme"`
	Config   ConfigSpec   `json:"config"`
	// Dynamic additionally executes the pair and replays the sync trace
	// through the vector-clock checker.
	Dynamic  bool  `json:"dynamic,omitempty"`
	MaxIters int64 `json:"maxIters,omitempty"`
}

// VerifyResponse carries the static (and optionally dynamic) reports.
type VerifyResponse struct {
	Workload string            `json:"workload"`
	Scheme   string            `json:"scheme"`
	Key      string            `json:"key"`
	Cached   bool              `json:"cached"`
	OK       bool              `json:"ok"`
	Static   *verify.Report    `json:"static"`
	Dynamic  *verify.DynReport `json:"dynamic,omitempty"`
	RunError string            `json:"runError,omitempty"`
}

func (r VerifyResponse) decorated(key cache.Key, hit bool) VerifyResponse {
	r.Key, r.Cached = key.String(), hit
	return r
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- evaluation ----

// shapeTableSize bounds a server's shape table, in entries. Each holds a
// serial memory image of at most maxShapeWords words and a dependence
// summary, so the table holds about 8 MB of images at most. The load
// generator's misses fall on a few hundred shapes, which 512 entries hold.
const shapeTableSize = 512

// maxShapeWords is the largest array footprint, in words, whose Shape the
// table keeps (lang.Footprint's element count, which checkSize bounds).
// A larger workload computes its own run invariants, as it always did.
const maxShapeWords = 2048

// seedShape hands wl, before its first run, the Shape of every workload
// built from a spec with the same shapeKey, from the server's bounded
// table: only the first miss of a shape computes its serial memory and
// dependence summary, inside the pool job that runs it. Every run still
// simulates and checks its own memory against the full serial image. A
// workload over maxShapeWords keeps a Shape of its own.
func (s *Server) seedShape(wl *codegen.Workload, spec WorkloadSpec) {
	if _, words := lang.Footprint(wl.Nest); words > maxShapeWords {
		return
	}
	v, _, _ := s.shapes.Do(spec.shapeKey(), func() (any, error) { return new(codegen.Shape), nil })
	wl.Shape = v.(*codegen.Shape)
}

// evalRun answers one sweep point through cache, singleflight and pool. It
// waits for a queue slot where a /run fails fast: see EvalSweep.
func (s *Server) evalRun(ctx context.Context, wl *codegen.Workload, sspec SchemeSpec, cfg sim.Config) (RunResponse, bool, error) {
	sch, err := sspec.Build()
	if err != nil {
		return RunResponse{}, false, err
	}
	if err := cfg.Check(); err != nil {
		return RunResponse{}, false, err
	}
	key := cache.RequestKey(wl, sch.Name(), cfg)
	rr, hit, err := fetch[RunResponse](s, key, true, func() (any, error) { return s.executeRun(ctx, patient, wl, sspec, cfg) })
	if err != nil {
		return RunResponse{}, false, err
	}
	return rr.decorate(key, hit), hit, nil
}

// executeRun runs one simulation on the pool and packages the measurements.
func (s *Server) executeRun(ctx context.Context, mode submitMode, wl *codegen.Workload, sspec SchemeSpec, cfg sim.Config) (*runResult, error) {
	return await(ctx, s.pool, mode, func() (*runResult, error) {
		start := time.Now()
		// A fresh scheme per execution: instance-based schemes carry
		// per-run renamed storage.
		sch, err := sspec.Build()
		if err != nil {
			return nil, err
		}
		res, err := s.simRun(wl, sch, cfg)
		if err == nil {
			s.metrics.ObserveJob(sspec.Name, time.Since(start))
		}
		s.observeOutcome(res, err)
		if err != nil {
			return nil, err
		}
		st := res.Stats
		return &runResult{val: RunResponse{
			Workload:     wl.Name,
			Scheme:       res.Scheme,
			SerialCycles: res.SerialCycles,
			Cycles:       st.Cycles,
			Speedup:      res.Speedup(),
			Utilization:  st.Utilization(),
			SyncOps:      st.SyncOps,
			WaitSync:     st.WaitSyncTotal(),
			BusTx:        st.BusBroadcasts,
			BusSaved:     st.BusSaved,
			ModuleAcc:    st.ModuleAccesses,
			Polls:        st.Polls,
			Foot:         res.Foot,
			Recovered:    st.Recovery != nil && st.Recovery.Recovered,
			Recovery:     st.Recovery,
			Stats:        st,
		}}, nil
	})
}

// observeOutcome feeds one executed job into the fault counters: a
// stall-class failure (a diagnosed deadlock/livelock under an active fault
// plan) is a watchdog trip and answers 400 like any unrunnable request; a
// recovered run is a completed run that also counts toward the recovery
// gauges.
func (s *Server) observeOutcome(res codegen.Result, err error) {
	var se *sim.StallError
	switch {
	case errors.As(err, &se):
		s.watchdogTrips.Add(1)
		s.injectedFaults.Add(se.Faults.Total())
	case err == nil:
		s.injectedFaults.Add(res.Stats.Faults.Total())
		if rec := res.Stats.Recovery; rec != nil && rec.Recovered {
			s.recoveredRuns.Add(1)
			s.recoveryCost.Add(rec.CostCycles)
		}
	}
}

// ---- handlers ----

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	p, ok := s.prepared(w, r, "/run")
	if !ok {
		return
	}
	rr, hit, err := fetch[RunResponse](s, p.Key, false, func() (any, error) {
		q, err := p.complete()
		if err != nil {
			return nil, err
		}
		s.seedShape(q.wl, q.run.Workload)
		return s.executeRun(r.Context(), failFast, q.wl, q.run.Scheme, q.cfg)
	})
	switch {
	case err != nil:
		s.evalError(w, err)
	case hit:
		s.writeHit(w, rr.hitBytes(p.Key))
	default:
		s.writeJSON(w, http.StatusOK, rr.decorate(p.Key, false))
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	p, ok := s.prepared(w, r, "/verify")
	if !ok {
		return
	}
	vr, hit, err := fetch[VerifyResponse](s, p.Key, false, func() (any, error) {
		q, err := p.complete()
		if err != nil {
			return nil, err
		}
		s.seedShape(q.wl, q.ver.Workload)
		return s.executeVerify(r.Context(), q.wl, q.ver)
	})
	switch {
	case err != nil:
		s.evalError(w, err)
	case hit:
		s.writeHit(w, vr.hitBytes(p.Key))
	default:
		s.writeJSON(w, http.StatusOK, vr.decorate(p.Key, false))
	}
}

// executeVerify runs the static (and optionally dynamic) checkers on the pool.
func (s *Server) executeVerify(ctx context.Context, wl *codegen.Workload, req VerifyRequest) (*verifyResult, error) {
	return await(ctx, s.pool, failFast, func() (*verifyResult, error) {
		sch, err := req.Scheme.Build()
		if err != nil {
			return nil, err
		}
		sp, err := codegen.ExtractSyncProgram(wl, sch)
		if err != nil {
			return nil, err
		}
		res := &verifyResult{val: VerifyResponse{
			Workload: wl.Name,
			Scheme:   sp.Scheme,
			Static:   verify.Static(sp, verify.Options{MaxIters: req.MaxIters}),
		}}
		resp := &res.val
		resp.OK = resp.Static.OK()
		if req.Dynamic {
			// A broken scheme may deadlock or fail serial equivalence; the
			// trace recorded up to that point is still replayed.
			fresh, err := req.Scheme.Build()
			if err != nil {
				return nil, err
			}
			_, events, rerr := codegen.RunSyncTraced(wl, fresh, req.Config.SimConfig())
			if rerr != nil {
				resp.RunError = OneLine(rerr)
				resp.OK = false
			}
			resp.Dynamic = verify.Dynamic(events)
			if !resp.Dynamic.OK() {
				resp.OK = false
			}
		}
		return res, nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":  "ok",
		"workers": s.pool.Workers(),
		"queue":   s.pool.QueueDepth(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body = map[string]any{"status": "draining"}
		code = http.StatusServiceUnavailable
	} else if s.opts.Degraded != nil {
		if deg, reason := s.opts.Degraded(); deg {
			body["status"] = "degraded"
			body["reason"] = reason
			code = http.StatusServiceUnavailable
		}
	}
	if s.opts.HealthInfo != nil {
		for k, v := range s.opts.HealthInfo() {
			if _, taken := body[k]; !taken {
				body[k] = v
			}
		}
	}
	s.writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Render(w, s.pool, s.cache.Snapshot(), s.shapes.Snapshot(), Resilience{
		WatchdogTrips:  s.watchdogTrips.Load(),
		InjectedFaults: s.injectedFaults.Load(),
		RecoveredRuns:  s.recoveredRuns.Load(),
		RecoveryCost:   s.recoveryCost.Load(),
	})
	if s.opts.MetricsAppend != nil {
		s.opts.MetricsAppend(w)
	}
}

// ---- plumbing ----

// decode parses a JSON body strictly (DecodeStrict), answering the 400
// itself when it cannot.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := DecodeStrict(http.MaxBytesReader(w, r.Body, MaxBody), dst); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// retryAfterHint is the Retry-After of a 429 from the full queue.
const retryAfterHint = time.Second

// evalError maps evaluation failures to HTTP: backpressure to 429 +
// Retry-After, cancellation to 503, everything else to 400 (the request
// described an unrunnable job: bad spec, deadlocking scheme, livelock cap,
// a stall diagnosed under a fault plan), except a memoized key its body
// does not reproduce, which is the server's fault (500).
func (s *Server) evalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfterHint/time.Second)))
		s.httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		s.httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errMemoKey):
		s.httpError(w, http.StatusInternalServerError, err)
	default:
		s.httpError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, err error) {
	if err := WriteError(w, code, err); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	if err := WriteJSON(w, code, v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// WriteJSON writes v as the answer under status code, in the one response
// encoding (see encodeIndented). The cluster's own endpoints answer
// through it too; WriteError is its error answer.
func WriteJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return encodeIndented(w, v)
}

// WriteError writes err as a JSON error answer, {"error": "<one line>"},
// under status code.
func WriteError(w http.ResponseWriter, code int, err error) error {
	return WriteJSON(w, code, errorResponse{Error: OneLine(err)})
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// routeLabel is the request metric's route label: a path Handler routes,
// or "other" for any other path, so clients probing arbitrary paths cannot
// grow the series set. The log line keeps the raw path.
func routeLabel(path string) string {
	switch path {
	case "/run", "/verify", "/sweep", "/compile", "/healthz", "/metrics":
		return path
	}
	return "other"
}

// logged wraps the mux with structured request logging and request metrics.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.metrics.ObserveRequest(routeLabel(r.URL.Path), sw.code, dur)
		s.log.Info("request",
			"method", r.Method,
			"route", r.URL.Path,
			"status", sw.code,
			"dur_ms", float64(dur.Microseconds())/1000,
			"queue", s.pool.QueueDepth(),
			"inflight", s.pool.InFlight(),
		)
	})
}
