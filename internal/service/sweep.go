package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
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
// order) together with each point's canonical content address.
func SweepPointKeys(req SweepRequest) ([]GridSel, []cache.Key, error) {
	_, sels, keys, err := ExpandSweep(req)
	return sels, keys, err
}

// ExpandSweep is SweepPointKeys that also returns the name the sweep's
// answer reports for its workload, from the one build of the workload. The
// cluster coordinator uses it to shard a sweep by cache ownership: a
// point's key decides both where its result lives and which node owns
// evaluating it.
func ExpandSweep(req SweepRequest) (workload string, sels []GridSel, keys []cache.Key, err error) {
	wl, err := req.Workload.Build()
	if err != nil {
		return "", nil, nil, err
	}
	if sels, err = expandPoints(req); err != nil {
		return "", nil, nil, err
	}
	keys = make([]cache.Key, len(sels))
	for i, sel := range sels {
		sspec, cspec := pointSpecs(req, sel)
		sch, err := sspec.Build()
		if err != nil {
			return "", nil, nil, err
		}
		keys[i] = cache.RequestKey(wl, sch.Name(), cspec.SimConfig())
	}
	return wl.Name, sels, keys, nil
}

// collapseAxis is the grid dimension along which a scheme's sweep points
// are chained, so that a run witness of one point can answer the next
// (DESIGN.md "Sweep collapse").
type collapseAxis uint8

const (
	// alongNone: every point is its own chain.
	alongNone collapseAxis = iota
	// alongX: the process schemes, chained in ascending X at fixed
	// (P, chunk, G, busLatency). A bus-free run answers every X; an
	// ownership-prompt run answers every multiple of its X.
	alongX
	// alongBus: ref and instance, whose runs ignore X, chained in
	// ascending busLatency at fixed (P, chunk, G). A bus-free run answers
	// every latency.
	alongBus
)

func collapseAxisOf(scheme string) collapseAxis {
	switch scheme {
	case "process", "process-basic":
		return alongX
	case "ref", "instance":
		return alongBus
	}
	return alongNone
}

// SweepChains groups the points sels of the sweep req (indices into sels)
// into the chains EvalSweep evaluates, each in the order it evaluates them.
// A chain holds every point that differs from the others only along the
// scheme's collapse axis, so it is the same whether computed over a whole
// grid or over any sub-grid holding it whole: the cluster coordinator
// places and packs whole chains, and the executor that receives them
// rebuilds the same chains. Chains are listed in grid order of their first
// point.
func SweepChains(req SweepRequest, sels []GridSel) [][]int {
	axis := collapseAxisOf(req.Scheme.Name)
	type chainKey struct {
		x        int
		p        int
		chunk, g int64
		hasG     bool
		lat      int64
	}
	pos := make(map[chainKey]int)
	var chains [][]int
	for i, sel := range sels {
		k := chainKey{x: sel.X, p: sel.P, chunk: sel.Chunk, g: sel.G, hasG: sel.HasG, lat: sel.BusLatency}
		switch axis {
		case alongNone:
			chains = append(chains, []int{i})
			continue
		case alongX:
			k.x = 0
		case alongBus:
			k.x, k.lat = 0, 0
		}
		c, ok := pos[k]
		if !ok {
			c = len(chains)
			pos[k] = c
			chains = append(chains, nil)
		}
		chains[c] = append(chains[c], i)
	}
	for _, c := range chains {
		sort.SliceStable(c, func(a, b int) bool {
			sa, sb := sels[c[a]], sels[c[b]]
			if axis == alongBus {
				return sa.BusLatency < sb.BusLatency
			}
			return pointX(req, sa) < pointX(req, sb)
		})
	}
	return chains
}

// pointX is the number of folded process counters point sel runs with.
func pointX(req SweepRequest, sel GridSel) int {
	sspec, _ := pointSpecs(req, sel)
	return sspec.foldedPCs()
}

// EvalSweep evaluates one sweep request on this server's pool and cache.
// It is the engine behind POST /sweep and the per-node execution step of
// the cluster's work-stealing sweep dispatch. The returned error covers
// only an unbuildable request; per-point failures ride in the points.
//
// Points are evaluated chain by chain (SweepChains), the chains
// concurrently. Within a chain a point whose result a run witness of an
// earlier evaluated point proves equal is not simulated: it copies that
// point's result (DESIGN.md "Sweep collapse").
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
	// Every point's scheme must build, not only the request's: a grid X
	// may break a bound the base X keeps (SweepPointKeys checks the same).
	names := make([]string, len(points))
	for i, sel := range points {
		sspec, _ := pointSpecs(req, sel)
		sch, err := sspec.Build()
		if err != nil {
			return nil, err
		}
		names[i] = sch.Name()
	}

	s.seedShape(wl, req.Workload)

	// Fan the chains across the pool. The caller's goroutine is not a pool
	// worker, so waiting for a queue slot (evalRun submits patiently)
	// cannot deadlock the pool; interactive /run traffic keeps its
	// fail-fast 429 behaviour while a sweep patiently shares capacity.
	out := make([]SweepPoint, len(points))
	var wg sync.WaitGroup
	for _, chain := range SweepChains(req, points) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.evalChain(ctx, wl, req, points, names, chain, out)
		}()
	}
	wg.Wait()
	return NewSweepResponse(wl.Name, out), nil
}

// NewSweepResponse assembles a sweep's response from its points, in grid
// order: the success, failure and cache-hit counts and the Pareto front
// over every point. EvalSweep and the cluster's sweep coordinator both
// answer with it, so a merged cluster sweep matches a single node's.
func NewSweepResponse(workload string, points []SweepPoint) *SweepResponse {
	resp := &SweepResponse{Workload: workload, Points: points}
	for _, p := range points {
		if p.Error != "" {
			resp.Failed++
			continue
		}
		resp.Evaluated++
		if p.Cached {
			resp.CacheHits++
		}
	}
	resp.Pareto = ParetoFront(points)
	return resp
}

// evalChain evaluates the points chain of sels in order into out; names
// holds each point's scheme name. A point
// is answered by the latest evaluated point of the chain whose witness
// covers it: a bus-free run covers every later point, an ownership-prompt
// run of a process scheme every later point whose X is a multiple of its
// own. A covered point keeps its own coordinates and scheme name, takes the
// covering point's result and cache provenance, and writes no cache entry.
// Every other point is evaluated through the cache and the pool.
func (s *Server) evalChain(ctx context.Context, wl *codegen.Workload, req SweepRequest, sels []GridSel, names []string, chain []int, out []SweepPoint) {
	axis := collapseAxisOf(req.Scheme.Name)
	type witness struct {
		i                  int // index of the evaluated point
		x                  int
		busFree, ownPrompt bool
	}
	var evaluated []witness
	for _, i := range chain {
		sspec, cspec := pointSpecs(req, sels[i])
		pt := sweepPoint(req, sels[i])
		x := sspec.foldedPCs()
		cover := -1
		for j := len(evaluated) - 1; j >= 0 && cover < 0; j-- {
			w := evaluated[j]
			if w.busFree || axis == alongX && w.ownPrompt && x%w.x == 0 {
				cover = w.i
			}
		}
		if cover >= 0 {
			src := out[cover]
			pt.Scheme = names[i]
			pt.Cached = src.Cached
			pt.Cycles, pt.SyncTraffic, pt.SyncOps, pt.Speedup = src.Cycles, src.SyncTraffic, src.SyncOps, src.Speedup
			s.metrics.observeSweepPoint(pointCollapsed)
			out[i] = pt
			continue
		}
		rr, hit, err := s.evalRun(ctx, wl, sspec, cspec.SimConfig())
		if err != nil {
			pt.Error = OneLine(err)
			out[i] = pt
			continue
		}
		pt.Scheme = rr.Scheme
		pt.Cached = rr.Cached
		pt.Cycles = rr.Cycles
		pt.SyncTraffic = rr.BusTx + rr.Polls
		pt.SyncOps = rr.SyncOps
		pt.Speedup = rr.Speedup
		out[i] = pt
		if hit {
			s.metrics.observeSweepPoint(pointCached)
		} else {
			s.metrics.observeSweepPoint(pointSimulated)
		}
		evaluated = append(evaluated, witness{i: i, x: x, busFree: rr.Stats.BusFree, ownPrompt: rr.Stats.OwnershipPrompt})
	}
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
	if err := WriteSweep(w, resp); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// WriteSweep writes resp as a 200 /sweep answer: the bytes encodeIndented
// writes for it (appendSweepResponse). The single-node handler and the
// cluster's sweep coordinator both answer through it.
func WriteSweep(w http.ResponseWriter, resp *SweepResponse) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// An indented point takes about 250 bytes, so the buffer is sized once.
	b, err := appendSweepResponse(make([]byte, 0, 160+288*(len(resp.Points)+len(resp.Pareto))), resp)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendSweepResponse appends r exactly as encodeIndented writes it:
// two-space indent, fields in struct order, omitempty on a point's g and
// error, HTML-escaped strings, encoding/json's float format, null for a
// nil slice and a trailing newline. Like encodeIndented, it fails on a
// NaN or infinite speedup.
func appendSweepResponse(b []byte, r *SweepResponse) ([]byte, error) {
	b = appendJSONString(append(b, "{\n  \"workload\": "...), r.Workload)
	b = strconv.AppendInt(append(b, ",\n  \"evaluated\": "...), int64(r.Evaluated), 10)
	b = strconv.AppendInt(append(b, ",\n  \"failed\": "...), int64(r.Failed), 10)
	b = strconv.AppendInt(append(b, ",\n  \"cacheHits\": "...), int64(r.CacheHits), 10)
	b, err := appendSweepPoints(append(b, ",\n  \"points\": "...), r.Points)
	if err != nil {
		return nil, err
	}
	if b, err = appendSweepPoints(append(b, ",\n  \"pareto\": "...), r.Pareto); err != nil {
		return nil, err
	}
	return append(b, "\n}\n"...), nil
}

// appendSweepPoints appends pts as the value of a top-level
// SweepResponse field.
func appendSweepPoints(b []byte, pts []SweepPoint) ([]byte, error) {
	switch {
	case pts == nil:
		return append(b, "null"...), nil
	case len(pts) == 0:
		return append(b, "[]"...), nil
	}
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, "\n    {\n      \"x\": "...), int64(p.X), 10)
		b = strconv.AppendInt(append(b, ",\n      \"p\": "...), int64(p.P), 10)
		b = strconv.AppendInt(append(b, ",\n      \"chunk\": "...), p.Chunk, 10)
		if p.G != 0 {
			b = strconv.AppendInt(append(b, ",\n      \"g\": "...), p.G, 10)
		}
		b = strconv.AppendInt(append(b, ",\n      \"busLatency\": "...), p.BusLatency, 10)
		b = appendJSONString(append(b, ",\n      \"scheme\": "...), p.Scheme)
		b = strconv.AppendBool(append(b, ",\n      \"cached\": "...), p.Cached)
		b = strconv.AppendInt(append(b, ",\n      \"cycles\": "...), p.Cycles, 10)
		b = strconv.AppendInt(append(b, ",\n      \"syncTraffic\": "...), p.SyncTraffic, 10)
		b = strconv.AppendInt(append(b, ",\n      \"syncOps\": "...), p.SyncOps, 10)
		var err error
		if b, err = appendJSONFloat(append(b, ",\n      \"speedup\": "...), p.Speedup); err != nil {
			return nil, err
		}
		if p.Error != "" {
			b = appendJSONString(append(b, ",\n      \"error\": "...), p.Error)
		}
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]"...), nil
}

// appendJSONString appends s as encoding/json marshals it. A string of
// printable ASCII that needs no escape (every workload and scheme name) is
// quoted as it is; any other is left to json.Marshal, which escapes
// quotes, backslashes, control bytes, <, > and &, and U+2028 and U+2029,
// and replaces invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendJSONFloat appends f as encoding/json marshals a float64: the
// shortest representation, in exponent form below 1e-6 or from 1e21 up,
// with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
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
