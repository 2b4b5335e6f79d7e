package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/frontend"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/verify"
)

// replayCaps bound the replayed sample per route; a replayed sweep runs
// the simulator once per uncached point, so it gets fewer.
var replayCaps = map[string]int{"/run": 500, "/verify": 200, "/compile": 200, "/sweep": 40}

// replayer re-runs the layer functions of captured requests one at a
// time, each call a replay span under the original request ID.
type replayer struct {
	t      *tracer
	durs   map[string]map[string][]float64 // class -> layer -> µs per call
	cycles int64
	runNs  int64
	// sweepCPU is, per replayed sweep, the summed codegen.Run time of its
	// uncached points (µs).
	sweepCPU []float64
}

// time runs f as one replay span and records its duration.
func (rp *replayer) time(class string, req int64, layer string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	rp.t.add(span{Name: "replay:" + layer, Route: class, Req: req, Start: rp.t.since(start), End: rp.t.since(end)})
	if rp.durs[class] == nil {
		rp.durs[class] = make(map[string][]float64)
	}
	rp.durs[class][layer] = append(rp.durs[class][layer], us(end.Sub(start)))
	return end.Sub(start)
}

// classOf buckets a traced request for the breakdown: /run is split into
// hits and misses because their paths differ.
func classOf(c caught) string {
	switch {
	case c.o.kind == kindSweep || c.o.kind == kindVerify || c.o.kind == kindCompile:
		return c.o.kind.path()
	case c.cached:
		return "/run hit"
	}
	return "/run miss"
}

// replay re-runs a seeded sample of the traced answers, at most
// replayCaps per route.
func replay(t *tracer, kept []caught, seed int64) (*replayer, error) {
	rp := &replayer{t: t, durs: make(map[string]map[string][]float64)}
	byRoute := make(map[string][]caught)
	for _, c := range kept {
		p := c.o.kind.path()
		byRoute[p] = append(byRoute[p], c)
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	rng := rand.New(rand.NewSource(seed))
	for _, r := range routes {
		cs := byRoute[r]
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		for _, c := range cs[:min(len(cs), replayCaps[r])] {
			if err := rp.one(c); err != nil {
				return nil, fmt.Errorf("replay op %d %s: %w", c.o.id, r, err)
			}
		}
	}
	return rp, nil
}

// one replays a captured request: decode its body, run the layer
// functions its path runs (the simulator only when the answer was not a
// cache hit), and encode the captured answer.
func (rp *replayer) one(c caught) error {
	class, id := classOf(c), c.o.id
	timed := func(layer string, f func() error) (err error) {
		rp.time(class, id, layer, func() { err = f() })
		return err
	}
	decode := func(dst any) error {
		return timed("service.decode", func() error { return strictDecode(c.o.body, dst) })
	}
	encode := func(v any) error {
		if err := json.Unmarshal(c.body, v); err != nil {
			return err
		}
		return timed("service.encode", func() error { _, err := json.MarshalIndent(v, "", "  "); return err })
	}
	switch c.o.kind {
	case kindSweep:
		var req service.SweepRequest
		var resp service.SweepResponse
		if err := decode(&req); err != nil {
			return err
		}
		if err := timed("cache.sweep_keys", func() error { _, _, err := service.SweepPointKeys(req); return err }); err != nil {
			return err
		}
		if err := encode(&resp); err != nil {
			return err
		}
		return rp.sweepPoints(class, id, req, resp)
	case kindCompile:
		var req service.CompileRequest
		if err := decode(&req); err != nil {
			return err
		}
		rp.time(class, id, "frontend.lower", func() { frontend.Lower(req.Filename, []byte(req.Source)) })
		if !c.cached {
			if err := timed("service.compile_source", func() error {
				_, err := service.CompileSource(req.Filename, []byte(req.Source), req.Schemes, req.Config)
				return err
			}); err != nil {
				return err
			}
		}
		return encode(&service.CompileResponse{})
	case kindVerify:
		var req service.VerifyRequest
		if err := decode(&req); err != nil {
			return err
		}
		wl, err := rp.build(class, id, req.Workload)
		if err != nil {
			return err
		}
		if !c.cached {
			sch, err := req.Scheme.Build()
			if err != nil {
				return err
			}
			var sp *codegen.SyncProgram
			if err := timed("codegen.plan", func() (err error) { sp, err = codegen.ExtractSyncProgram(wl, sch); return err }); err != nil {
				return err
			}
			rp.time(class, id, "verify.static", func() { verify.Static(sp, verify.Options{MaxIters: req.MaxIters}) })
		}
		// verify.Class marshals to a string but does not unmarshal from
		// one, so the captured answer is re-encoded from its generic form.
		var resp any
		return encode(&resp)
	default:
		var req service.RunRequest
		if err := decode(&req); err != nil {
			return err
		}
		wl, err := rp.build(class, id, req.Workload)
		if err != nil {
			return err
		}
		sch, err := req.Scheme.Build()
		if err != nil {
			return err
		}
		cfg := req.Config.SimConfig()
		rp.time(class, id, "cache.key", func() { cache.RequestKey(wl, sch.Name(), cfg) })
		if !c.cached {
			if err := rp.simulate(class, id, wl, req.Scheme, req.Config, true); err != nil {
				return err
			}
		}
		return encode(&service.RunResponse{})
	}
}

// build times WorkloadSpec.Build: a built-in generator, or lang.Parse
// for inline source.
func (rp *replayer) build(class string, id int64, ws service.WorkloadSpec) (*codegen.Workload, error) {
	layer := "workloads.build"
	if ws.Source != "" {
		layer = "lang.parse"
	}
	var wl *codegen.Workload
	var err error
	rp.time(class, id, layer, func() { wl, err = ws.Build() })
	return wl, err
}

// simulate times codegen.Run on a fresh scheme and, when plan is set, the
// synchronization plan (ExtractSyncProgram) and the minimal arc set it
// starts from (LinearGraph().Enforced()).
func (rp *replayer) simulate(class string, id int64, wl *codegen.Workload, ss service.SchemeSpec, cs service.ConfigSpec, plan bool) error {
	sch, err := ss.Build()
	if err != nil {
		return err
	}
	var res codegen.Result
	rp.runNs += int64(rp.time(class, id, "codegen.run", func() { res, err = codegen.Run(wl, sch, cs.SimConfig()) }))
	if err != nil {
		return err
	}
	rp.cycles += res.Stats.Cycles
	if !plan {
		return nil
	}
	if sch, err = ss.Build(); err != nil {
		return err
	}
	rp.time(class, id, "codegen.plan", func() { _, err = codegen.ExtractSyncProgram(wl, sch) })
	rp.time(class, id, "deps.enforced", func() { wl.Nest.LinearGraph().Enforced() })
	return err
}

// sweepPoints simulates every uncached point of a sweep once, as the
// executors did, and the plan of the sweep's first point.
func (rp *replayer) sweepPoints(class string, id int64, req service.SweepRequest, resp service.SweepResponse) error {
	wl, err := req.Workload.Build()
	if err != nil {
		return err
	}
	before := rp.runNs
	first := true
	for _, p := range resp.Points {
		if p.Cached || p.Error != "" {
			continue
		}
		ss, cs := req.Scheme, req.Config
		ss.X, cs.P, cs.Chunk = p.X, p.P, p.Chunk
		if p.G != 0 {
			ss.G = p.G
		}
		lat := p.BusLatency
		cs.BusLatency = &lat
		if err := rp.simulate(class, id, wl, ss, cs, first); err != nil {
			return err
		}
		first = false
	}
	rp.sweepCPU = append(rp.sweepCPU, us(time.Duration(rp.runNs-before)))
	return nil
}

// redundantShare is, over the traced sweeps, the share of distinct point
// keys whose result (cycles, sync traffic, sync ops, speedup) duplicates
// another key's in the same sweep: simulations a result-aware planner
// could have skipped.
func redundantShare(kept []caught) (float64, error) {
	var keys, redundant int
	for _, c := range kept {
		if c.o.kind != kindSweep {
			continue
		}
		var req service.SweepRequest
		if err := json.Unmarshal(c.o.body, &req); err != nil {
			return 0, err
		}
		_, ks, err := service.SweepPointKeys(req)
		if err != nil {
			return 0, err
		}
		var resp service.SweepResponse
		if err := json.Unmarshal(c.body, &resp); err != nil {
			return 0, err
		}
		if len(resp.Points) != len(ks) {
			return 0, fmt.Errorf("sweep op %d: %d points for %d keys", c.o.id, len(resp.Points), len(ks))
		}
		seenKey := make(map[cache.Key]bool)
		results := make(map[string]bool)
		for i, p := range resp.Points {
			if seenKey[ks[i]] {
				continue
			}
			seenKey[ks[i]] = true
			results[fmt.Sprintf("%d/%d/%d/%g", p.Cycles, p.SyncTraffic, p.SyncOps, p.Speedup)] = true
		}
		keys += len(seenKey)
		redundant += len(seenKey) - len(results)
	}
	if keys == 0 {
		return 0, nil
	}
	return float64(redundant) / float64(keys), nil
}
