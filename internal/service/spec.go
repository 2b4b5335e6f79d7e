// Package service implements dsserve: an HTTP JSON service that evaluates
// synchronization programs on the deterministic simulator and verifies them
// with the happens-before checkers, behind a bounded worker pool with queue
// backpressure and a content-addressed result cache.
//
// The package also owns the request vocabulary — WorkloadSpec, SchemeSpec,
// ConfigSpec — which the CLIs (cmd/dssim) share, so "unknown scheme" means
// the same thing and renders the same diagnostic everywhere.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// WorkloadSpec names a workload: either a built-in generator with its
// parameters, or inline .do source. Zero-valued parameters take the listed
// defaults.
type WorkloadSpec struct {
	// Name selects a built-in workload: fig21, nested, branchy, recurrence,
	// stencil. Ignored when Source is set.
	Name string `json:"name,omitempty"`
	// Source is a program in the .do loop language; it overrides Name.
	Source string `json:"source,omitempty"`

	N    int64 `json:"n,omitempty"`    // iterations / outer extent / grid size (default 40)
	M    int64 `json:"m,omitempty"`    // inner extent, nested workload (default 8)
	D    int64 `json:"d,omitempty"`    // dependence distance, recurrence (default 2)
	Cost int64 `json:"cost,omitempty"` // statement cost in cycles (default 4)
}

// WorkloadNames lists the built-in workload names Build accepts.
func WorkloadNames() []string {
	return []string{"fig21", "nested", "branchy", "recurrence", "stencil"}
}

// maxWorkloadSize bounds a workload's iteration count and the total element
// count of its arrays. A run allocates and simulates in proportion to both,
// so without a bound one request could make a pool worker allocate past the
// heap. The sizes in use are far below it: the load generator draws n up to
// 120 (stencil n up to 20, 400 iterations) and the largest .do program, in
// examples/dslrun, has 4,000 iterations.
const maxWorkloadSize = 1 << 16

// checkSize rejects a workload over maxWorkloadSize. Every request path
// that builds a workload passes through it: WorkloadSpec.Build for /run,
// /verify and /sweep, CompileSource for each loop lowered from Go source.
func checkSize(w *codegen.Workload) error {
	iters, elems := lang.Footprint(w.Nest)
	if iters > maxWorkloadSize {
		return fmt.Errorf("workload: %.0f iterations exceed the limit of %d", iters, maxWorkloadSize)
	}
	if elems > maxWorkloadSize {
		return fmt.Errorf("workload: arrays of %.0f elements exceed the limit of %d", elems, maxWorkloadSize)
	}
	return nil
}

// Build materializes the workload, rejecting one over maxWorkloadSize.
func (s WorkloadSpec) Build() (*codegen.Workload, error) {
	w, err := s.build()
	if err != nil {
		return nil, err
	}
	if err := checkSize(w); err != nil {
		return nil, err
	}
	return w, nil
}

// withDefaults returns the spec with every zero-valued parameter set to
// its default. build and shapeKey both read the spec through it, so a
// workload and its Shape's address agree on every parameter.
func (s WorkloadSpec) withDefaults() WorkloadSpec {
	if s.N <= 0 {
		s.N = 40
	}
	if s.M <= 0 {
		s.M = 8
	}
	if s.D <= 0 {
		s.D = 2
	}
	if s.Cost <= 0 {
		s.Cost = 4
	}
	return s
}

// shapeKey is the address of the workload's codegen.Shape in a server's
// shape table: the spec with its defaults applied and its cost dropped.
// That is name, n, m and d for a built-in, and the exact source text for
// a .do program (which names no cost of its own). No cost enters a Shape,
// so workloads that differ only in cost share one.
//
// It is not the canonical request key (cache.RequestKey): that encodes a
// .do statement by its label and references, not its right-hand side, so
// two programs that differ only in a right-hand side share a canonical
// key but not their serial memory.
func (s WorkloadSpec) shapeKey() cache.Key {
	if s.Source != "" {
		return sha256.Sum256([]byte("source\x00" + s.Source))
	}
	d := s.withDefaults()
	b := append(make([]byte, 0, 64), "builtin\x00"...)
	b = append(b, d.Name...)
	for _, v := range []int64{d.N, d.M, d.D} {
		b = binary.AppendVarint(append(b, 0), v)
	}
	return sha256.Sum256(b)
}

func (s WorkloadSpec) build() (*codegen.Workload, error) {
	s = s.withDefaults()
	n, m, d, cost := s.N, s.M, s.D, s.Cost
	if s.Source != "" {
		w, err := lang.Parse(s.Source)
		if err != nil {
			return nil, fmt.Errorf("parse program: %w", err)
		}
		return w, nil
	}
	// Every built-in's outer loop runs to n, and nested's inner loop to m,
	// so a larger n or m is over the size limit. Refuse it before building:
	// its nest's iteration count may not fit an int64, which loop.New
	// refuses and the built-ins' loop.MustNew turns into a panic.
	builtin := slices.Contains(WorkloadNames(), s.Name)
	if builtin && (n > maxWorkloadSize || (s.Name == "nested" && m > maxWorkloadSize)) {
		return nil, fmt.Errorf("workload: %s with n = %d, m = %d exceeds the size limit of %d", s.Name, n, m, maxWorkloadSize)
	}
	switch s.Name {
	case "fig21":
		return workloads.Fig21(n, cost), nil
	case "nested":
		return workloads.Nested(n, m, cost), nil
	case "branchy":
		return workloads.Branchy(n, cost), nil
	case "recurrence":
		return workloads.Recurrence(n, d, cost), nil
	case "stencil":
		return workloads.Stencil(n, cost), nil
	case "":
		return nil, fmt.Errorf("workload: name or source required (built-ins: %v)", WorkloadNames())
	}
	return nil, fmt.Errorf("unknown workload %q (built-ins: %v)", s.Name, WorkloadNames())
}

// SchemeSpec names a synchronization scheme with its parameters.
type SchemeSpec struct {
	// Name: process, process-basic, pipeline, statement, ref, instance.
	Name string `json:"name"`
	X    int    `json:"x,omitempty"` // folded process counters (default 8)
	K    int    `json:"k,omitempty"` // statement counters (0 = one per source)
	G    int64  `json:"g,omitempty"` // pipeline grouping (default 1)
}

// SchemeNames lists the scheme names Build accepts.
func SchemeNames() []string {
	return []string{"process", "process-basic", "pipeline", "statement", "ref", "instance"}
}

// maxCounters bounds a scheme's X and K. Every counter is a synchronization
// variable the run declares, so without a bound one request could make a
// pool worker allocate billions of them.
const maxCounters = 1024

// Build returns a fresh scheme instance. Fresh matters: the instance-based
// scheme carries per-run renamed storage, so scheme values must never be
// shared between runs.
func (s SchemeSpec) Build() (codegen.Scheme, error) {
	if s.K < 0 {
		return nil, fmt.Errorf("scheme: k must not be negative, got %d", s.K)
	}
	if s.X > maxCounters || s.K > maxCounters {
		return nil, fmt.Errorf("scheme: x and k may not exceed %d", maxCounters)
	}
	x := s.foldedPCs()
	g := s.G
	if g <= 0 {
		g = 1
	}
	switch s.Name {
	case "process":
		return codegen.ProcessOriented{X: x, Improved: true}, nil
	case "process-basic":
		return codegen.ProcessOriented{X: x, Improved: false}, nil
	case "pipeline":
		return codegen.PipelinedOuter{X: x, G: g}, nil
	case "statement":
		return codegen.StatementOriented{K: s.K}, nil
	case "ref":
		return codegen.RefBased{}, nil
	case "instance":
		return codegen.NewInstanceBased(), nil
	case "":
		return nil, fmt.Errorf("scheme: name required (one of %v)", SchemeNames())
	}
	return nil, fmt.Errorf("unknown scheme %q (one of %v)", s.Name, SchemeNames())
}

// foldedPCs is the number X of folded process counters the scheme is built
// with: the requested X, or the default of 8.
func (s SchemeSpec) foldedPCs() int {
	if s.X <= 0 {
		return 8
	}
	return s.X
}

// Verifiable reports whether the scheme is in scope for the static
// happens-before verifier (the pipelined-outer scheme's processes are
// outer-loop slices, which the iteration-indexed model does not cover).
func (s SchemeSpec) Verifiable() bool { return s.Name != "pipeline" }

// ConfigSpec describes the simulated machine. Zero values take the listed
// defaults; negative values are rejected by sim.Config.Check.
type ConfigSpec struct {
	P          int    `json:"p,omitempty"`          // processors (default 8)
	BusLatency *int64 `json:"busLatency,omitempty"` // sync-bus broadcast latency (default 1)
	Coverage   bool   `json:"coverage,omitempty"`   // write-coverage optimization
	MemLatency int64  `json:"memLatency,omitempty"` // memory-module latency (default 2)
	Modules    int    `json:"modules,omitempty"`    // memory modules (default: one per processor)
	SyncOpCost *int64 `json:"syncOpCost,omitempty"` // sync-op issue cost (default 1)
	SchedCost  *int64 `json:"schedCost,omitempty"`  // per-dispatch overhead (default 1)
	DataLat    int64  `json:"dataLatency,omitempty"`
	Chunk      int64  `json:"chunk,omitempty"` // >1 selects chunked self-scheduling
	MaxCycles  int64  `json:"maxCycles,omitempty"`
	// Fault, when set, arms the deterministic fault plan for this run.
	// Faulty runs hash to their own cache addresses (the plan is part of
	// the canonical key), so they never poison clean entries.
	Fault *fault.Plan `json:"fault,omitempty"`
	// Recover, when set and armed, lets the simulator reclaim a halted
	// processor's PC ownership and fold its pending iterations onto live
	// processors instead of diagnosing a stall. Armed recovery is part of
	// the canonical cache key; disarmed recovery hashes like no recovery.
	Recover *sim.Recover `json:"recover,omitempty"`
}

// SimConfig resolves the spec into a simulator configuration (defaults
// applied; validity is checked by the run entry points via Config.Check).
func (c ConfigSpec) SimConfig() sim.Config {
	p := c.P
	if p == 0 {
		p = 8
	}
	mods := c.Modules
	if mods == 0 {
		mods = p
	}
	deref := func(v *int64, def int64) int64 {
		if v == nil {
			return def
		}
		return *v
	}
	cfg := sim.Config{
		Processors:    p,
		BusLatency:    deref(c.BusLatency, 1),
		BusCoverage:   c.Coverage,
		MemLatency:    c.MemLatency,
		Modules:       mods,
		SyncOpCost:    deref(c.SyncOpCost, 1),
		SchedOverhead: deref(c.SchedCost, 1),
		DataLatency:   c.DataLat,
		MaxCycles:     c.MaxCycles,
	}
	if cfg.MemLatency == 0 {
		cfg.MemLatency = 2
	}
	if c.Chunk > 1 {
		cfg.Dispatch = sim.DispatchChunked
		cfg.ChunkSize = c.Chunk
	}
	if c.Fault != nil {
		cfg.FaultPlan = *c.Fault
	}
	if c.Recover != nil {
		cfg.Recover = *c.Recover
	}
	return cfg
}
