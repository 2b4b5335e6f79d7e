package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"

	"github.com/csrd-repro/datasync/internal/cache"
)

// maxSweepPoints caps one sweep request's grid: large studies should be
// split into several requests rather than monopolizing the pool.
const maxSweepPoints = 1024

// SweepGrid is the parameter grid to fan out: the cross product of every
// non-empty dimension. An empty dimension holds the base request's value.
type SweepGrid struct {
	X          []int   `json:"x,omitempty"`          // folded process counters
	P          []int   `json:"p,omitempty"`          // processors
	Chunk      []int64 `json:"chunk,omitempty"`      // self-scheduling chunk size
	G          []int64 `json:"g,omitempty"`          // pipeline grouping
	BusLatency []int64 `json:"busLatency,omitempty"` // sync-bus broadcast latency
}

// SweepRequest asks for a parameter study: one workload x scheme family
// evaluated over the grid, answered with every point plus the Pareto front
// of cycles vs. synchronization traffic.
type SweepRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Scheme   SchemeSpec   `json:"scheme"`
	Config   ConfigSpec   `json:"config"`
	Grid     SweepGrid    `json:"grid"`
	// Points, when non-empty, overrides Grid with an explicit point list.
	// The cluster coordinator dispatches owner-aligned sub-grids this way:
	// an arbitrary subset of a cross-product grid is not itself a
	// cross-product, so sub-grids travel as the points they contain.
	Points []GridSel `json:"points,omitempty"`
}

// GridSel selects one fully resolved sweep point.
type GridSel struct {
	X          int   `json:"x"`
	P          int   `json:"p"`
	Chunk      int64 `json:"chunk"`
	G          int64 `json:"g,omitempty"`
	HasG       bool  `json:"hasG,omitempty"` // whether G overrides the base scheme's grouping
	BusLatency int64 `json:"busLatency"`
}

// SweepPoint is one evaluated grid point. SyncTraffic is the run's total
// synchronization fabric load: sync-bus broadcasts plus busy-wait memory
// polls (the two media a scheme's sync operations travel on).
type SweepPoint struct {
	X           int     `json:"x"`
	P           int     `json:"p"`
	Chunk       int64   `json:"chunk"`
	G           int64   `json:"g,omitempty"`
	BusLatency  int64   `json:"busLatency"`
	Scheme      string  `json:"scheme"`
	Cached      bool    `json:"cached"`
	Cycles      int64   `json:"cycles"`
	SyncTraffic int64   `json:"syncTraffic"`
	SyncOps     int64   `json:"syncOps"`
	Speedup     float64 `json:"speedup"`
	Error       string  `json:"error,omitempty"`
}

// SweepResponse reports every point (grid order) and the Pareto front
// (ascending cycles). Points that failed to run carry an Error and are
// excluded from the front.
type SweepResponse struct {
	Workload  string       `json:"workload"`
	Evaluated int          `json:"evaluated"`
	Failed    int          `json:"failed"`
	CacheHits int          `json:"cacheHits"`
	Points    []SweepPoint `json:"points"`
	Pareto    []SweepPoint `json:"pareto"`
}

// expandPoints resolves the request's point set: the explicit Points list
// when present, otherwise the grid cross product.
func expandPoints(req SweepRequest) ([]GridSel, error) {
	if len(req.Points) > 0 {
		if len(req.Points) > maxSweepPoints {
			return nil, fmt.Errorf("sweep has %d explicit points, max %d — split the study", len(req.Points), maxSweepPoints)
		}
		return slices.Clone(req.Points), nil
	}
	return req.Grid.expand(req)
}

// expand builds the cross product, substituting base values for empty
// dimensions.
func (g SweepGrid) expand(base SweepRequest) ([]GridSel, error) {
	xs := g.X
	if len(xs) == 0 {
		xs = []int{base.Scheme.X}
	}
	ps := g.P
	if len(ps) == 0 {
		ps = []int{base.Config.P}
	}
	chunks := g.Chunk
	if len(chunks) == 0 {
		chunks = []int64{base.Config.Chunk}
	}
	gs := g.G
	hasG := len(gs) > 0
	if !hasG {
		gs = []int64{base.Scheme.G}
	}
	lats := g.BusLatency
	if len(lats) == 0 {
		var b int64 = 1
		if base.Config.BusLatency != nil {
			b = *base.Config.BusLatency
		}
		lats = []int64{b}
	}
	total := len(xs) * len(ps) * len(chunks) * len(gs) * len(lats)
	if total > maxSweepPoints {
		return nil, fmt.Errorf("sweep grid has %d points, max %d — split the study", total, maxSweepPoints)
	}
	points := make([]GridSel, 0, total)
	for _, x := range xs {
		for _, p := range ps {
			for _, c := range chunks {
				for _, gg := range gs {
					for _, l := range lats {
						points = append(points, GridSel{X: x, P: p, Chunk: c, G: gg, HasG: hasG, BusLatency: l})
					}
				}
			}
		}
	}
	return points, nil
}

// pointSpecs resolves one grid point into the scheme and config specs its
// run is evaluated (and content-addressed) under.
func pointSpecs(req SweepRequest, sel GridSel) (SchemeSpec, ConfigSpec) {
	sspec := req.Scheme
	sspec.X = sel.X
	if sel.HasG {
		sspec.G = sel.G
	}
	cspec := req.Config
	cspec.P = sel.P
	cspec.Chunk = sel.Chunk
	lat := sel.BusLatency
	cspec.BusLatency = &lat
	return sspec, cspec
}

// sweepPoint renders point sel of the sweep req as every sweep reports it,
// before its result is filled in: the grid coordinates, with the machine
// size resolved the way the point's run resolves it (P 0 is the default
// machine). EvalSweep and the cluster coordinator's failed points both use
// it, so a point reads the same whichever node renders it.
func sweepPoint(req SweepRequest, sel GridSel) SweepPoint {
	_, cspec := pointSpecs(req, sel)
	pt := SweepPoint{X: sel.X, P: cspec.SimConfig().Processors, Chunk: sel.Chunk, BusLatency: sel.BusLatency}
	if sel.HasG {
		pt.G = sel.G
	}
	return pt
}

// FailedSweepPoint renders point sel of the sweep req as a point that
// failed with err, in the shape EvalSweep reports a failed point.
func FailedSweepPoint(req SweepRequest, sel GridSel, err error) SweepPoint {
	pt := sweepPoint(req, sel)
	pt.Error = OneLine(err)
	return pt
}

// SweepPointKeys expands a sweep request into its explicit point list (grid
// order) together with each point's canonical content address. The cluster
// coordinator uses it to shard a sweep by cache ownership: a point's key
// decides both where its result lives and which node owns evaluating it.
func SweepPointKeys(req SweepRequest) ([]GridSel, []cache.Key, error) {
	wl, err := req.Workload.Build()
	if err != nil {
		return nil, nil, err
	}
	sels, err := expandPoints(req)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]cache.Key, len(sels))
	for i, sel := range sels {
		sspec, cspec := pointSpecs(req, sel)
		sch, err := sspec.Build()
		if err != nil {
			return nil, nil, err
		}
		keys[i] = cache.RequestKey(wl, sch.Name(), cspec.SimConfig())
	}
	return sels, keys, nil
}

// EvalSweep evaluates one sweep request on this server's pool and cache.
// It is the engine behind POST /sweep and the per-node execution step of
// the cluster's work-stealing sweep dispatch. The returned error covers
// only an unbuildable request; per-point failures ride in the points.
func (s *Server) EvalSweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	wl, err := req.Workload.Build()
	if err != nil {
		return nil, err
	}
	if _, err := req.Scheme.Build(); err != nil {
		return nil, err
	}
	points, err := expandPoints(req)
	if err != nil {
		return nil, err
	}

	// Fan the grid across the pool. The caller's goroutine is not a pool
	// worker, so waiting for a queue slot (SubmitWait via patientCtx)
	// cannot deadlock the pool; interactive /run traffic keeps its
	// fail-fast 429 behaviour while a sweep patiently shares capacity.
	ctx = patientCtx(ctx)
	resp := &SweepResponse{Workload: wl.Name, Points: make([]SweepPoint, len(points))}
	var wg sync.WaitGroup
	for i, sel := range points {
		i := i
		sspec, cspec := pointSpecs(req, sel)
		pt := sweepPoint(req, sel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr, _, err := s.evalRun(ctx, wl, sspec, cspec.SimConfig())
			if err != nil {
				pt.Error = OneLine(err)
			} else {
				pt.Scheme = rr.Scheme
				pt.Cached = rr.Cached
				pt.Cycles = rr.Cycles
				pt.SyncTraffic = rr.BusTx + rr.Polls
				pt.SyncOps = rr.SyncOps
				pt.Speedup = rr.Speedup
			}
			resp.Points[i] = pt
		}()
	}
	wg.Wait()

	for _, p := range resp.Points {
		if p.Error != "" {
			resp.Failed++
			continue
		}
		resp.Evaluated++
		if p.Cached {
			resp.CacheHits++
		}
	}
	resp.Pareto = ParetoFront(resp.Points)
	return resp, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, err := s.EvalSweep(r.Context(), req)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, *resp)
}

// ParetoFront returns the non-dominated successful points, minimizing
// (Cycles, SyncTraffic), sorted by ascending cycles. A point is dominated
// when another is no worse on both axes and strictly better on one.
func ParetoFront(points []SweepPoint) []SweepPoint {
	ok := make([]SweepPoint, 0, len(points))
	for _, p := range points {
		if p.Error == "" {
			ok = append(ok, p)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].Cycles != ok[j].Cycles {
			return ok[i].Cycles < ok[j].Cycles
		}
		return ok[i].SyncTraffic < ok[j].SyncTraffic
	})
	var front []SweepPoint
	bestTraffic := int64(-1)
	for _, p := range ok {
		if bestTraffic == -1 || p.SyncTraffic < bestTraffic {
			front = append(front, p)
			bestTraffic = p.SyncTraffic
		}
	}
	return front
}
