package cache

import (
	"reflect"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

var canonCfg = sim.Config{Processors: 8, BusLatency: 1, MemLatency: 2,
	Modules: 8, SyncOpCost: 1, SchedOverhead: 1}

// TestRequestKeyStable: rebuilding the same workload must produce the same
// key — content addressing, not pointer identity.
func TestRequestKeyStable(t *testing.T) {
	k1 := RequestKey(workloads.Fig21(40, 4), "process(X=8,improved)", canonCfg)
	k2 := RequestKey(workloads.Fig21(40, 4), "process(X=8,improved)", canonCfg)
	if k1 != k2 {
		t.Errorf("identical requests hash differently: %s vs %s", k1, k2)
	}
}

// TestRequestKeySensitivity: every component of the request must reach the
// hash — workload shape, parameters, scheme, each config field, extras.
func TestRequestKeySensitivity(t *testing.T) {
	base := func() Key {
		return RequestKey(workloads.Fig21(40, 4), "ref", canonCfg)
	}
	k0 := base()

	variants := map[string]Key{
		"workload kind":   RequestKey(workloads.Recurrence(40, 2, 4), "ref", canonCfg),
		"workload extent": RequestKey(workloads.Fig21(41, 4), "ref", canonCfg),
		"statement cost":  RequestKey(workloads.Fig21(40, 5), "ref", canonCfg),
		"scheme":          RequestKey(workloads.Fig21(40, 4), "process(X=8,improved)", canonCfg),
		"verify extra":    VerifyKey(workloads.Fig21(40, 4), "ref", canonCfg, false, 0),
	}
	cfgMuts := map[string]func(*sim.Config){
		"Processors":    func(c *sim.Config) { c.Processors = 4 },
		"BusLatency":    func(c *sim.Config) { c.BusLatency = 2 },
		"BusCoverage":   func(c *sim.Config) { c.BusCoverage = true },
		"MemLatency":    func(c *sim.Config) { c.MemLatency = 3 },
		"Modules":       func(c *sim.Config) { c.Modules = 2 },
		"SyncOpCost":    func(c *sim.Config) { c.SyncOpCost = 0 },
		"SchedOverhead": func(c *sim.Config) { c.SchedOverhead = 2 },
		"DataLatency":   func(c *sim.Config) { c.DataLatency = 1 },
		"MaxCycles":     func(c *sim.Config) { c.MaxCycles = 12345 },
		"Dispatch":      func(c *sim.Config) { c.Dispatch = sim.DispatchChunked },
		"ChunkSize":     func(c *sim.Config) { c.ChunkSize = 8 },
		"FaultPlan":     func(c *sim.Config) { c.FaultPlan = fault.Plan{DropProb: 0.01} },
		"Recover":       func(c *sim.Config) { c.Recover = sim.Recover{AfterCycles: 100} },
	}
	// Armed recovery sections must separate from each other too.
	recoverMuts := map[string]func(*sim.Recover){
		"AfterCycles": func(r *sim.Recover) { r.AfterCycles = 200 },
		"MaxReclaims": func(r *sim.Recover) { r.MaxReclaims = 3 },
	}
	baseRecover := sim.Recover{AfterCycles: 100, MaxReclaims: 1}
	for name, mut := range recoverMuts {
		cfg := canonCfg
		cfg.Recover = baseRecover
		mut(&cfg.Recover)
		variants["recover."+name] = RequestKey(workloads.Fig21(40, 4), "ref", cfg)
	}
	{
		cfg := canonCfg
		cfg.Recover = baseRecover
		variants["recover.base"] = RequestKey(workloads.Fig21(40, 4), "ref", cfg)
	}
	// Armed fault plans must be distinguished from each other too: any
	// single-knob change to an enabled plan is a different address.
	faultMuts := map[string]func(*fault.Plan){
		"Seed":        func(p *fault.Plan) { p.Seed = 99 },
		"DropProb":    func(p *fault.Plan) { p.DropProb = 0.02 },
		"DelayProb":   func(p *fault.Plan) { p.DelayProb = 0.5 },
		"DelayCycles": func(p *fault.Plan) { p.DelayCycles = 16 },
		"TornOrder":   func(p *fault.Plan) { p.TornOrder = fault.OwnerFirst },
	}
	basePlan := fault.Plan{Seed: 1, DropProb: 0.01, DelayProb: 0.1, DelayCycles: 8, TornProb: 0.1}
	for name, mut := range faultMuts {
		cfg := canonCfg
		cfg.FaultPlan = basePlan
		mut(&cfg.FaultPlan)
		variants["fault."+name] = RequestKey(workloads.Fig21(40, 4), "ref", cfg)
	}
	{
		cfg := canonCfg
		cfg.FaultPlan = basePlan
		variants["fault.base"] = RequestKey(workloads.Fig21(40, 4), "ref", cfg)
	}
	for name, mut := range cfgMuts {
		cfg := canonCfg
		mut(&cfg)
		variants["config."+name] = RequestKey(workloads.Fig21(40, 4), "ref", cfg)
	}

	seen := map[Key]string{k0: "base"}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s: %s", name, prev, k)
		}
		seen[k] = name
	}
	if k0 != base() {
		t.Error("base key not reproducible")
	}
}

// TestRequestKeyCoversConfig pins the field counts of sim.Config and of its
// fault.Plan / sim.Recover sub-structs: when a field (or knob) is added,
// this fails until writeConfig / the Canon methods (and the sensitivity
// tables above) are extended, keeping the canonical encoding exhaustive.
func TestRequestKeyCoversConfig(t *testing.T) {
	if n := reflect.TypeOf(sim.Config{}).NumField(); n != 13 {
		t.Errorf("sim.Config has %d fields; update cache.writeConfig and this test (encodes 13)", n)
	}
	if n := reflect.TypeOf(fault.Plan{}).NumField(); n != 17 {
		t.Errorf("fault.Plan has %d fields; update fault.Plan.Canon and this test (encodes 17)", n)
	}
	if n := reflect.TypeOf(sim.Recover{}).NumField(); n != 2 {
		t.Errorf("sim.Recover has %d fields; update sim.Recover.Canon and this test (encodes 2)", n)
	}
}

// TestDisabledPlanKeepsCleanKey: an explicitly-zero fault plan must hash to
// the same address as no plan at all — faults off is provably zero-effect
// on the cache.
func TestDisabledPlanKeepsCleanKey(t *testing.T) {
	plain := RequestKey(workloads.Fig21(40, 4), "ref", canonCfg)
	cfg := canonCfg
	cfg.FaultPlan = fault.Plan{}
	if k := RequestKey(workloads.Fig21(40, 4), "ref", cfg); k != plain {
		t.Errorf("zero fault plan changed the key: %s vs %s", k, plain)
	}
	// A seed alone does not arm the plan, so it must not change the key
	// either (nothing is injected; the run is identical).
	cfg.FaultPlan = fault.Plan{Seed: 42}
	if k := RequestKey(workloads.Fig21(40, 4), "ref", cfg); k != plain {
		t.Errorf("unarmed seeded plan changed the key: %s vs %s", k, plain)
	}
	// A zero Recover is disarmed; a MaxReclaims tweak alone does not arm it
	// (AfterCycles >= 1 is the arming condition). Recovered runs hash
	// identically to clean runs exactly when the recovery section is off.
	cfg = canonCfg
	cfg.Recover = sim.Recover{}
	if k := RequestKey(workloads.Fig21(40, 4), "ref", cfg); k != plain {
		t.Errorf("zero Recover changed the key: %s vs %s", k, plain)
	}
	cfg.Recover = sim.Recover{MaxReclaims: 2}
	if k := RequestKey(workloads.Fig21(40, 4), "ref", cfg); k != plain {
		t.Errorf("unarmed Recover changed the key: %s vs %s", k, plain)
	}
}

// TestRequestKeyBranches: branch structure (names, arm contents) must be
// part of the address.
func TestRequestKeyBranches(t *testing.T) {
	k1 := RequestKey(workloads.Branchy(40, 4), "ref", canonCfg)
	k2 := RequestKey(workloads.Branchy(40, 4), "ref", canonCfg)
	k3 := RequestKey(workloads.Branchy(41, 4), "ref", canonCfg)
	if k1 != k2 {
		t.Error("branchy workload key unstable")
	}
	if k1 == k3 {
		t.Error("branchy extent not hashed")
	}
}

// TestCompileKey: the compile address is deterministic and sensitive to
// every input — source bytes, labeling filename, scheme selection (and its
// order), and machine configuration — and lives in its own canon section so
// it can never collide with a RequestKey.
func TestCompileKey(t *testing.T) {
	src := []byte("package p\nfunc f(a []int) {\n\tfor i := 1; i < 9; i++ {\n\t\ta[i] = a[i-1]\n\t}\n}\n")
	schemes := []string{"process(X=8,improved)", "ref"}
	base := CompileKey("k.go", src, schemes, canonCfg)
	if base != CompileKey("k.go", src, schemes, canonCfg) {
		t.Error("identical compile requests hash differently")
	}
	variants := map[string]Key{
		"source":       CompileKey("k.go", append([]byte(nil), append(src, ' ')...), schemes, canonCfg),
		"filename":     CompileKey("other.go", src, schemes, canonCfg),
		"schemes":      CompileKey("k.go", src, []string{"ref"}, canonCfg),
		"scheme order": CompileKey("k.go", src, []string{"ref", "process(X=8,improved)"}, canonCfg),
		"config":       CompileKey("k.go", src, schemes, func() sim.Config { c := canonCfg; c.Processors = 4; return c }()),
	}
	for what, k := range variants {
		if k == base {
			t.Errorf("changing %s did not change the compile key", what)
		}
	}
}
