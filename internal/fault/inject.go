package fault

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Counts is a snapshot of how many faults an Injector actually injected,
// by kind. It travels in sim.Stats and in stall reports, and feeds the
// dsserve_injected_faults_total metric.
type Counts struct {
	Drops        int64 `json:"drops,omitempty"`
	Delays       int64 `json:"delays,omitempty"`
	Dups         int64 `json:"dups,omitempty"`
	StaleReads   int64 `json:"staleReads,omitempty"`
	Torn         int64 `json:"torn,omitempty"`
	ModuleDelays int64 `json:"moduleDelays,omitempty"`
	SlowOps      int64 `json:"slowOps,omitempty"`
	Halts        int64 `json:"halts,omitempty"`
}

// Total is the number of injected faults across all kinds.
func (c Counts) Total() int64 {
	return c.Drops + c.Delays + c.Dups + c.StaleReads + c.Torn +
		c.ModuleDelays + c.SlowOps + c.Halts
}

// String renders the non-zero kinds, or "none".
func (c Counts) String() string {
	var parts []string
	add := func(name string, v int64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("drops", c.Drops)
	add("delays", c.Delays)
	add("dups", c.Dups)
	add("staleReads", c.StaleReads)
	add("torn", c.Torn)
	add("moduleDelays", c.ModuleDelays)
	add("slowOps", c.SlowOps)
	add("halts", c.Halts)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Add accumulates another snapshot (for service-level totals).
func (c *Counts) Add(o Counts) {
	c.Drops += o.Drops
	c.Delays += o.Delays
	c.Dups += o.Dups
	c.StaleReads += o.StaleReads
	c.Torn += o.Torn
	c.ModuleDelays += o.ModuleDelays
	c.SlowOps += o.SlowOps
	c.Halts += o.Halts
}

// Injector applies a Plan and records what was actually injected. The
// decision methods are pure functions of their coordinates (plus the seed),
// so the schedule is reproducible; the injector itself only adds counting.
// Counters are atomic so that a snapshot is safe from any goroutine; the
// simulator, the injector's one user, is single-threaded and pays nothing
// for it.
type Injector struct {
	plan Plan

	drops        atomic.Int64
	delays       atomic.Int64
	dups         atomic.Int64
	staleReads   atomic.Int64
	torn         atomic.Int64
	moduleDelays atomic.Int64
	slowOps      atomic.Int64
	halts        atomic.Int64

	halted atomic.Bool

	mu         sync.Mutex
	droppedVar map[int64]int64 // varID -> dropped broadcasts, for stall diagnosis
}

// NewInjector builds an injector for a checked plan.
func NewInjector(p Plan) *Injector {
	return &Injector{plan: p, droppedVar: map[int64]int64{}}
}

// Plan returns the plan the injector applies.
func (in *Injector) Plan() Plan { return in.plan }

// Counts snapshots the injected-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Drops:        in.drops.Load(),
		Delays:       in.delays.Load(),
		Dups:         in.dups.Load(),
		StaleReads:   in.staleReads.Load(),
		Torn:         in.torn.Load(),
		ModuleDelays: in.moduleDelays.Load(),
		SlowOps:      in.slowOps.Load(),
		Halts:        in.halts.Load(),
	}
}

// DropBroadcast decides whether bus broadcast number seq (of variable varID,
// issued by proc) is lost, and records the loss for diagnosis.
func (in *Injector) DropBroadcast(seq int64, proc int, varID int64) bool {
	if in.plan.DropProb <= 0 || in.plan.roll(siteDrop, seq, int64(proc), varID) >= in.plan.DropProb {
		return false
	}
	in.drops.Add(1)
	in.mu.Lock()
	in.droppedVar[varID]++
	in.mu.Unlock()
	return true
}

// DelayBroadcast returns the extra cycles broadcast seq holds the bus (0 =
// no delay).
func (in *Injector) DelayBroadcast(seq int64, proc int, varID int64) int64 {
	if in.plan.DelayProb <= 0 || in.plan.roll(siteDelay, seq, int64(proc), varID) >= in.plan.DelayProb {
		return 0
	}
	in.delays.Add(1)
	return in.plan.delayCycles()
}

// DupBroadcast decides whether broadcast seq is delivered twice.
func (in *Injector) DupBroadcast(seq int64, proc int, varID int64) bool {
	if in.plan.DupProb <= 0 || in.plan.roll(siteDup, seq, int64(proc), varID) >= in.plan.DupProb {
		return false
	}
	in.dups.Add(1)
	return true
}

// StaleRead returns how many cycles a satisfied register wait (re-check
// number seq by proc on varID) instead sees a stale image (0 = fresh).
func (in *Injector) StaleRead(seq int64, proc int, varID int64) int64 {
	if in.plan.StaleProb <= 0 || in.plan.roll(siteStale, seq, int64(proc), varID) >= in.plan.StaleProb {
		return 0
	}
	in.staleReads.Add(1)
	return in.plan.staleCycles()
}

// TornUpdate decides whether broadcast seq commits as a torn two-field
// update and, if so, returns the split parameters.
func (in *Injector) TornUpdate(seq int64, proc int, varID int64) (lowBits int, window int64, ownerFirst bool, torn bool) {
	if in.plan.TornProb <= 0 || in.plan.roll(siteTorn, seq, int64(proc), varID) >= in.plan.TornProb {
		return 0, 0, false, false
	}
	in.torn.Add(1)
	return in.plan.tornLowBits(), in.plan.tornWindow(), in.plan.tornOwnerFirst(), true
}

// ModuleDelay returns the extra service cycles for module access seq on
// module mod issued by proc (0 = nominal).
func (in *Injector) ModuleDelay(seq int64, mod, proc int) int64 {
	if in.plan.ModuleDelayProb <= 0 || in.plan.roll(siteModule, seq, int64(mod), int64(proc)) >= in.plan.ModuleDelayProb {
		return 0
	}
	in.moduleDelays.Add(1)
	return in.plan.moduleDelayCycles()
}

// SlowExtra returns the extra busy cycles a compute op of the given cost
// pays on proc (0 for every other processor).
func (in *Injector) SlowExtra(proc int, cycles int64) int64 {
	if in.plan.SlowFactor < 2 || proc != in.plan.SlowProc || cycles == 0 {
		return 0
	}
	in.slowOps.Add(1)
	return cycles * (in.plan.SlowFactor - 1)
}

// Halted reports whether proc is halted at simulated time now. The first
// positive answer is counted once.
func (in *Injector) Halted(proc int, now int64) bool {
	if in.plan.HaltAtCycle < 1 || proc != in.plan.HaltProc || now < in.plan.HaltAtCycle {
		return false
	}
	if in.halted.CompareAndSwap(false, true) {
		in.halts.Add(1)
	}
	return true
}

// HaltActive reports whether the halt fault has fired.
func (in *Injector) HaltActive() bool { return in.halted.Load() }

// VarDropped returns how many broadcasts of varID were dropped — the basis
// for "the injected fault explains this stall".
func (in *Injector) VarDropped(varID int64) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.droppedVar[varID]
}

// SlowsCycles reports whether the plan injects any fault that only
// lengthens a run without blocking it (relevant when a run exceeds its
// cycle cap rather than deadlocking).
func (p Plan) SlowsCycles() bool {
	return p.DelayProb > 0 || p.StaleProb > 0 || p.ModuleDelayProb > 0 || p.SlowFactor >= 2
}
