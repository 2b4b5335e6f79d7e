package fault

import (
	"math"
	"strings"
	"testing"
)

// TestZeroValueDisabled: the zero Plan injects nothing, and every decision
// method on its injector declines.
func TestZeroValueDisabled(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan must be disabled")
	}
	if err := p.Check(); err != nil {
		t.Fatalf("zero plan must check clean: %v", err)
	}
	in := NewInjector(p)
	for seq := int64(0); seq < 100; seq++ {
		if in.DropBroadcast(seq, 0, 1) || in.DupBroadcast(seq, 0, 1) {
			t.Fatal("zero plan injected a bus fault")
		}
		if in.DelayBroadcast(seq, 0, 1) != 0 || in.StaleRead(seq, 0, 1) != 0 || in.ModuleDelay(seq, 0, 0) != 0 {
			t.Fatal("zero plan injected a delay")
		}
		if _, _, _, torn := in.TornUpdate(seq, 0, 1); torn {
			t.Fatal("zero plan injected a torn update")
		}
	}
	if in.SlowExtra(0, 5) != 0 || in.Halted(0, 100) {
		t.Fatal("zero plan injected a processor fault")
	}
	if in.Counts() != (Counts{}) {
		t.Fatalf("zero plan counted faults: %+v", in.Counts())
	}
}

// TestScheduleDeterminism: two injectors with the same plan make identical
// decisions at identical sites regardless of query order.
func TestScheduleDeterminism(t *testing.T) {
	p := Plan{Seed: 42, DropProb: 0.1, DelayProb: 0.2, DelayCycles: 6, DupProb: 0.05}
	a, b := NewInjector(p), NewInjector(p)
	const n = 2000
	// Query a forward and b backward: decisions must match site-by-site.
	typeA := make([]bool, n)
	delayA := make([]int64, n)
	for seq := int64(0); seq < n; seq++ {
		typeA[seq] = a.DropBroadcast(seq, int(seq%4), seq%3)
		delayA[seq] = a.DelayBroadcast(seq, int(seq%4), seq%3)
	}
	for seq := int64(n - 1); seq >= 0; seq-- {
		if b.DropBroadcast(seq, int(seq%4), seq%3) != typeA[seq] {
			t.Fatalf("drop decision at seq %d depends on query order", seq)
		}
		if b.DelayBroadcast(seq, int(seq%4), seq%3) != delayA[seq] {
			t.Fatalf("delay decision at seq %d depends on query order", seq)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverge: %+v vs %+v", a.Counts(), b.Counts())
	}
}

// TestSeedChangesSchedule: a different seed gives a different schedule (with
// overwhelming probability at 2000 sites and 10% rate).
func TestSeedChangesSchedule(t *testing.T) {
	a := NewInjector(Plan{Seed: 1, DropProb: 0.1})
	b := NewInjector(Plan{Seed: 2, DropProb: 0.1})
	diff := 0
	for seq := int64(0); seq < 2000; seq++ {
		if a.DropBroadcast(seq, 0, 0) != b.DropBroadcast(seq, 0, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical drop schedules")
	}
}

// TestRollRate: injection frequency tracks the configured probability.
func TestRollRate(t *testing.T) {
	p := Plan{Seed: 7, DropProb: 0.25}
	in := NewInjector(p)
	const n = 20000
	hits := 0
	for seq := int64(0); seq < n; seq++ {
		if in.DropBroadcast(seq, 0, 0) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("drop rate %.3f, want ~0.25", rate)
	}
	if in.Counts().Drops != int64(hits) {
		t.Fatalf("counter %d != observed %d", in.Counts().Drops, hits)
	}
}

// TestSiteIndependence: drop and delay decisions at the same coordinates are
// decorrelated by the site-kind salt.
func TestSiteIndependence(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, DropProb: 0.5, DelayProb: 0.5})
	same, n := 0, 4000
	for seq := int64(0); seq < int64(n); seq++ {
		d := in.DropBroadcast(seq, 0, 0)
		y := in.DelayBroadcast(seq, 0, 0) != 0
		if d == y {
			same++
		}
	}
	frac := float64(same) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop/delay agreement %.3f, want ~0.5 (independent)", frac)
	}
}

func TestProcessorFaults(t *testing.T) {
	in := NewInjector(Plan{SlowProc: 2, SlowFactor: 3})
	if got := in.SlowExtra(2, 4); got != 8 {
		t.Errorf("SlowExtra(slow proc, 4 cycles) = %d, want 8", got)
	}
	if got := in.SlowExtra(1, 4); got != 0 {
		t.Errorf("SlowExtra(other proc) = %d, want 0", got)
	}
	if got := in.SlowExtra(2, 0); got != 0 {
		t.Errorf("SlowExtra(zero-cycle op) = %d, want 0", got)
	}

	h := NewInjector(Plan{HaltProc: 1, HaltAtCycle: 50})
	if h.Halted(1, 49) {
		t.Error("halted before HaltAtCycle")
	}
	if !h.Halted(1, 50) || !h.Halted(1, 51) {
		t.Error("not halted at/after HaltAtCycle")
	}
	if h.Halted(0, 100) {
		t.Error("wrong processor halted")
	}
	if h.Counts().Halts != 1 {
		t.Errorf("halts counted %d times, want once", h.Counts().Halts)
	}
}

func TestCheckRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{DropProb: -0.1},
		{DelayProb: 1.5},
		{DelayCycles: -1},
		{TornProb: 0.1, TornOrder: "sideways"},
		{TornLowBits: 63},
		{SlowProc: -1},
	}
	for i, p := range bad {
		if err := p.Check(); err == nil {
			t.Errorf("plan %d (%+v) passed Check", i, p)
		}
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("drop=bus:0.01,delay=bus:0.05:6,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, DropProb: 0.01, DelayProb: 0.05, DelayCycles: 6}
	if p != want {
		t.Fatalf("ParseSpec = %+v, want %+v", p, want)
	}

	p, err = ParseSpec("torn=pc:1:owner-first:4,slow=proc1:2,halt=proc0:100,mem=mod:0.5,stale=reg:0.2:9,dup=bus:0.3")
	if err != nil {
		t.Fatal(err)
	}
	want = Plan{TornProb: 1, TornOrder: OwnerFirst, TornWindow: 4,
		SlowProc: 1, SlowFactor: 2,
		HaltProc: 0, HaltAtCycle: 100, ModuleDelayProb: 0.5,
		StaleProb: 0.2, StaleCycles: 9, DupProb: 0.3}
	if p != want {
		t.Fatalf("ParseSpec = %+v, want %+v", p, want)
	}

	for _, bad := range []string{
		"drop=0.01",          // missing target
		"drop=bus",           // missing probability
		"nonsense=bus:0.5",   // unknown key
		"drop=bus:2",         // out of range (caught by Check)
		"torn=pc:1:sideways", // bad order
		"stall=iter1:5",      // unknown key: faults are simulator-only
		"seed",               // not key=value
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestCanonCoversEveryField(t *testing.T) {
	// Each single-field mutation must change the canon string, so a new
	// fault knob cannot silently alias cache entries.
	base := Plan{Seed: 1, DropProb: 0.1, DelayProb: 0.1, DelayCycles: 2,
		DupProb: 0.1, StaleProb: 0.1, StaleCycles: 3, TornProb: 0.1,
		TornOrder: StepFirst, TornWindow: 2, TornLowBits: 20,
		ModuleDelayProb: 0.1, ModuleDelayCycles: 2, SlowProc: 1,
		SlowFactor: 2, HaltProc: 1, HaltAtCycle: 9}
	muts := []func(*Plan){
		func(p *Plan) { p.Seed = 2 },
		func(p *Plan) { p.DropProb = 0.2 },
		func(p *Plan) { p.DelayProb = 0.2 },
		func(p *Plan) { p.DelayCycles = 4 },
		func(p *Plan) { p.DupProb = 0.2 },
		func(p *Plan) { p.StaleProb = 0.2 },
		func(p *Plan) { p.StaleCycles = 4 },
		func(p *Plan) { p.TornProb = 0.2 },
		func(p *Plan) { p.TornOrder = OwnerFirst },
		func(p *Plan) { p.TornWindow = 4 },
		func(p *Plan) { p.TornLowBits = 10 },
		func(p *Plan) { p.ModuleDelayProb = 0.2 },
		func(p *Plan) { p.ModuleDelayCycles = 4 },
		func(p *Plan) { p.SlowProc = 2 },
		func(p *Plan) { p.SlowFactor = 3 },
		func(p *Plan) { p.HaltProc = 2 },
		func(p *Plan) { p.HaltAtCycle = 10 },
	}
	ref := base.Canon()
	for i, mut := range muts {
		q := base
		mut(&q)
		if q.Canon() == ref {
			t.Errorf("mutation %d did not change Canon()", i)
		}
	}
}

func TestCountsString(t *testing.T) {
	if s := (Counts{}).String(); s != "none" {
		t.Errorf("empty Counts.String() = %q", s)
	}
	c := Counts{Drops: 2, Torn: 1}
	if s := c.String(); !strings.Contains(s, "drops=2") || !strings.Contains(s, "torn=1") {
		t.Errorf("Counts.String() = %q", s)
	}
	var tot Counts
	tot.Add(c)
	tot.Add(Counts{Delays: 3})
	if tot.Total() != 6 {
		t.Errorf("Total = %d, want 6", tot.Total())
	}
}
