package service

import (
	"context"
	"fmt"
	"net/http"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/frontend"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
)

// CompileRequest asks the service to lower Go source through the frontend
// and evaluate every accepted loop nest under the requested schemes.
type CompileRequest struct {
	// Filename labels diagnostic positions (default "input.go").
	Filename string `json:"filename,omitempty"`
	// Source is the Go source text to lower.
	Source string `json:"source"`
	// Schemes to place and measure; empty selects every scheme.
	Schemes []SchemeSpec `json:"schemes,omitempty"`
	Config  ConfigSpec   `json:"config"`
}

// CompileScheme is one scheme's outcome on one lowered loop: either a
// refusal (Error) or a measured, statically verified placement.
type CompileScheme struct {
	Scheme string `json:"scheme"`
	// Error reports a scheme that refused the loop (unknown-distance arcs,
	// wrong nest shape); the other fields are then zero.
	Error        string            `json:"error,omitempty"`
	SerialCycles int64             `json:"serialCycles,omitempty"`
	Cycles       int64             `json:"cycles,omitempty"`
	Speedup      float64           `json:"speedup,omitempty"`
	SyncOps      int64             `json:"syncOps,omitempty"`
	WaitSync     int64             `json:"waitSyncCycles,omitempty"`
	BusTx        int64             `json:"busBroadcasts,omitempty"`
	Foot         codegen.Footprint `json:"footprint"`
	// VerifyOK is the static happens-before verdict; nil when the scheme is
	// outside the static model (outer-loop pipelining).
	VerifyOK *bool `json:"verifyOk,omitempty"`
	Findings int   `json:"findings,omitempty"`
}

// CompileLoop is one accepted loop nest: its dependence analysis and the
// per-scheme synchronization comparison. Unknown lists the conservative
// (unproven) dependence arcs with their classification — distinct from the
// proven distance-vector arcs rendered in Graph.
type CompileLoop struct {
	Workload   string            `json:"workload"`
	Pos        frontend.Position `json:"pos"`
	Depth      int               `json:"depth"`
	Iterations int64             `json:"iterations"`
	Graph      string            `json:"graph"`
	Unknown    []string          `json:"unknown,omitempty"`
	Schemes    []CompileScheme   `json:"schemes"`
}

// CompileOutcome is the cacheable part of a compile evaluation.
type CompileOutcome struct {
	Loops    []CompileLoop         `json:"loops"`
	Rejected []frontend.Diagnostic `json:"rejected"`
}

// CompileResponse decorates the outcome with its content address.
type CompileResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	CompileOutcome
}

func (r CompileResponse) decorated(key cache.Key, hit bool) CompileResponse {
	r.Key, r.Cached = key.String(), hit
	return r
}

// Hard reports whether the outcome should fail a gating caller: any
// rejected candidate, any static verification finding, or a loop that no
// requested scheme could synchronize.
func (o *CompileOutcome) Hard() bool {
	if len(o.Rejected) > 0 {
		return true
	}
	for _, lp := range o.Loops {
		allRefused := len(lp.Schemes) > 0
		for _, cs := range lp.Schemes {
			if cs.Error == "" {
				allRefused = false
			}
			if cs.VerifyOK != nil && !*cs.VerifyOK {
				return true
			}
		}
		if allRefused {
			return true
		}
	}
	return false
}

// CompileSource is the engine shared by the /compile endpoint and the dsgo
// CLI: lower the source, analyze each accepted nest, and for every
// requested scheme place synchronization, verify it statically (when the
// scheme is in the static model), and measure a run. Scheme refusals are
// per-scheme data, not errors; the returned error covers only an invalid
// machine configuration and a loop over maxWorkloadSize.
func CompileSource(filename string, src []byte, specs []SchemeSpec, cfg ConfigSpec) (*CompileOutcome, error) {
	simCfg := cfg.SimConfig()
	if err := simCfg.Check(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		for _, name := range SchemeNames() {
			specs = append(specs, SchemeSpec{Name: name})
		}
	}
	res := frontend.Lower(filename, src)
	for _, lp := range res.Loops {
		if err := checkSize(lp.Workload); err != nil {
			return nil, fmt.Errorf("compile: loop at %s: %w", lp.Pos, err)
		}
	}
	out := &CompileOutcome{Rejected: res.Rejected}
	for _, lp := range res.Loops {
		g := lp.Workload.Nest.Analyze()
		cl := CompileLoop{
			Workload:   lp.Workload.Name,
			Pos:        lp.Pos,
			Depth:      lp.Workload.Nest.Depth(),
			Iterations: lp.Workload.Nest.Iterations(),
			Graph:      g.String(),
		}
		for _, a := range g.UnknownArcs() {
			cl.Unknown = append(cl.Unknown, fmt.Sprintf("%s -%s(?%s)-> %s (%s vs %s: %s)",
				g.Stmts[a.Src].Name, a.Kind, a.Reason, g.Stmts[a.Dst].Name,
				a.SrcRef, a.DstRef, a.Reason.Explain()))
		}
		for _, spec := range specs {
			cl.Schemes = append(cl.Schemes, compileScheme(lp.Workload, spec, simCfg))
		}
		out.Loops = append(out.Loops, cl)
	}
	return out, nil
}

func compileScheme(w *codegen.Workload, spec SchemeSpec, cfg sim.Config) CompileScheme {
	sch, err := spec.Build()
	if err != nil {
		return CompileScheme{Scheme: spec.Name, Error: OneLine(err)}
	}
	cs := CompileScheme{Scheme: sch.Name()}
	if spec.Verifiable() {
		sp, err := codegen.ExtractSyncProgram(w, sch)
		if err != nil {
			cs.Error = OneLine(err)
			return cs
		}
		rep := verify.Static(sp, verify.Options{})
		ok := rep.OK()
		cs.VerifyOK = &ok
		cs.Findings = len(rep.Findings)
	}
	// A fresh scheme instance for the measured run: the instance-based
	// scheme carries per-run renamed storage.
	fresh, err := spec.Build()
	if err != nil {
		cs.Error = OneLine(err)
		return cs
	}
	r, err := codegen.Run(w, fresh, cfg)
	if err != nil {
		cs.Error = OneLine(err)
		return cs
	}
	cs.SerialCycles = r.SerialCycles
	cs.Cycles = r.Stats.Cycles
	cs.Speedup = r.Speedup()
	cs.SyncOps = r.Stats.SyncOps
	cs.WaitSync = r.Stats.WaitSyncTotal()
	cs.BusTx = r.Stats.BusBroadcasts
	cs.Foot = r.Foot
	return cs
}

// compileSchemeNames canonicalizes the scheme selection for the content
// address: built, parameterized names (defaults applied), so two spellings
// of the same selection share an address.
func compileSchemeNames(specs []SchemeSpec) ([]string, error) {
	if len(specs) == 0 {
		for _, name := range SchemeNames() {
			specs = append(specs, SchemeSpec{Name: name})
		}
	}
	names := make([]string, len(specs))
	for i, spec := range specs {
		sch, err := spec.Build()
		if err != nil {
			return nil, err
		}
		names[i] = sch.Name()
	}
	return names, nil
}

// handleCompile serves POST /compile: content-addressed through the cache
// (its own "compile" canon section), evaluated as a single pool job. A
// request that lowers zero loops is an input error: 400 with the first
// positioned diagnostic in the error field plus the full rejection list.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	p, ok := s.prepared(w, r, "/compile")
	if !ok {
		return
	}
	cr, hit, err := fetch[CompileResponse](s, p.Key, true, func() (any, error) {
		q, err := p.complete()
		if err != nil {
			return nil, err
		}
		return s.executeCompile(r.Context(), q.filename, q.comp)
	})
	if err != nil {
		s.evalError(w, err)
		return
	}
	out := cr.decorate(p.Key, hit)
	if len(out.Loops) == 0 {
		msg := "compile: no lowerable loops in source"
		if len(out.Rejected) > 0 {
			msg = out.Rejected[0].String()
		}
		s.writeJSON(w, http.StatusBadRequest, struct {
			Error string `json:"error"`
			CompileResponse
		}{Error: msg, CompileResponse: out})
		return
	}
	if hit {
		s.writeHit(w, cr.hitBytes(p.Key))
		return
	}
	s.writeJSON(w, http.StatusOK, out)
}

// executeCompile runs the whole compile (lowering plus every loop x scheme
// evaluation) as one bounded pool job.
func (s *Server) executeCompile(ctx context.Context, filename string, req CompileRequest) (*compileResult, error) {
	return await(ctx, s.pool, failFast, func() (*compileResult, error) {
		out, err := CompileSource(filename, []byte(req.Source), req.Schemes, req.Config)
		if err != nil {
			return nil, err
		}
		return &compileResult{val: CompileResponse{CompileOutcome: *out}}, nil
	})
}
