// Package fault is a seeded, deterministic fault-injection layer for the
// synchronization-bus simulator.
//
// A Plan describes which faults to inject and how often; it is plain data
// (JSON-serializable, comparable, zero value = no faults) so it can travel
// inside sim.Config, through the dsserve request vocabulary, and into the
// cache canon key. All randomness is a pure hash of (seed, site kind, site
// coordinates): whether broadcast #17 of variable 3 is dropped depends only
// on those numbers, never on wall-clock time, goroutine interleaving or
// GOMAXPROCS — so the same seed and plan reproduce the exact same fault
// schedule on every run, which is what makes a chaos failure debuggable.
//
// The package deliberately imports nothing from the rest of the repository:
// internal/sim consumes it, so it must sit below it.
package fault

import (
	"fmt"
	"strings"
)

// Torn-update store orders (paper §6): a two-field <owner,step> PC update
// that is not atomic is safe when the step half is stored before the owner
// half, and hazardous in the opposite order.
const (
	// StepFirst commits the step (low) half before the owner (high) half —
	// the order §6 proves safe, and the default.
	StepFirst = "step-first"
	// OwnerFirst commits the owner (high) half before the step (low) half —
	// the hazardous order, exposing <newOwner, oldStep> to waiters.
	OwnerFirst = "owner-first"
)

// Plan is a deterministic fault-injection plan. The zero value injects
// nothing. Probabilities are per eligible site in [0,1]; cycle counts are in
// simulated cycles. Fields gate on their "amount" so that a probability or
// duration of zero always means "off".
type Plan struct {
	// Seed selects the fault schedule; two runs with the same plan and seed
	// inject exactly the same faults at the same sites.
	Seed int64 `json:"seed,omitempty"`

	// DropProb is the probability a sync-bus broadcast is lost: the writer
	// keeps its local register image, but no other processor ever sees the
	// value.
	DropProb float64 `json:"dropProb,omitempty"`
	// DelayProb is the probability a broadcast holds the bus for
	// DelayCycles extra cycles before committing.
	DelayProb   float64 `json:"delayProb,omitempty"`
	DelayCycles int64   `json:"delayCycles,omitempty"` // default 8
	// DupProb is the probability a broadcast is delivered twice. Sync
	// variables are monotone, so duplication must be harmless; this probes
	// that claim.
	DupProb float64 `json:"dupProb,omitempty"`

	// StaleProb is the probability a satisfied register wait instead
	// observes a stale local image and keeps spinning for StaleCycles
	// before re-checking.
	StaleProb   float64 `json:"staleProb,omitempty"`
	StaleCycles int64   `json:"staleCycles,omitempty"` // default 4

	// TornProb is the probability a broadcast commits as a torn two-field
	// <owner,step> update: one half at commit time, the other TornWindow
	// cycles later, in TornOrder. TornLowBits is the width of the step
	// field in the packed word (default 20, matching core.StepBits).
	TornProb    float64 `json:"tornProb,omitempty"`
	TornOrder   string  `json:"tornOrder,omitempty"`   // step-first (default) or owner-first
	TornWindow  int64   `json:"tornWindow,omitempty"`  // default 1
	TornLowBits int     `json:"tornLowBits,omitempty"` // default 20

	// ModuleDelayProb is the probability one memory-module access takes
	// ModuleDelayCycles extra cycles (a slow DRAM bank).
	ModuleDelayProb   float64 `json:"moduleDelayProb,omitempty"`
	ModuleDelayCycles int64   `json:"moduleDelayCycles,omitempty"` // default 4

	// SlowFactor >= 2 multiplies every compute op on processor SlowProc by
	// that factor (a processor running hot or descheduled).
	SlowProc   int   `json:"slowProc,omitempty"`
	SlowFactor int64 `json:"slowFactor,omitempty"`

	// HaltAtCycle >= 1 stops processor HaltProc dead at that cycle: it
	// never executes another op, so everything depending on it stalls.
	HaltProc    int   `json:"haltProc,omitempty"`
	HaltAtCycle int64 `json:"haltAtCycle,omitempty"`
}

// Enabled reports whether the plan injects anything at all. A disabled plan
// must be indistinguishable from no plan: the simulator skips every hook and
// the cache canon key is byte-identical to one computed without the fault
// layer.
func (p Plan) Enabled() bool {
	return p.DropProb > 0 || p.DelayProb > 0 || p.DupProb > 0 ||
		p.StaleProb > 0 || p.TornProb > 0 || p.ModuleDelayProb > 0 ||
		p.SlowFactor >= 2 || p.HaltAtCycle >= 1
}

// Halts reports whether the processor-halt fault is armed — the one fault
// class ownership reclamation (sim.Config.Recover) can heal: a halted
// processor's PC is a transferable token, so a recovery layer can reclaim
// it, while drops and slowdowns have nothing to reclaim.
func (p Plan) Halts() bool { return p.HaltAtCycle >= 1 }

// Check validates the plan. It is called from sim.Config.Check so a bad
// fault spec is an input error, not a crash.
func (p Plan) Check() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"dropProb", p.DropProb}, {"delayProb", p.DelayProb}, {"dupProb", p.DupProb},
		{"staleProb", p.StaleProb}, {"tornProb", p.TornProb}, {"moduleDelayProb", p.ModuleDelayProb},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1] (got %g)", pr.name, pr.v)
		}
	}
	cycles := []struct {
		name string
		v    int64
	}{
		{"delayCycles", p.DelayCycles}, {"staleCycles", p.StaleCycles},
		{"tornWindow", p.TornWindow}, {"moduleDelayCycles", p.ModuleDelayCycles},
		{"haltAtCycle", p.HaltAtCycle}, {"slowFactor", p.SlowFactor},
	}
	for _, c := range cycles {
		if c.v < 0 {
			return fmt.Errorf("fault: %s must be >= 0 (got %d)", c.name, c.v)
		}
	}
	if p.TornOrder != "" && p.TornOrder != StepFirst && p.TornOrder != OwnerFirst {
		return fmt.Errorf("fault: tornOrder must be %q or %q (got %q)", StepFirst, OwnerFirst, p.TornOrder)
	}
	if p.TornLowBits < 0 || p.TornLowBits > 62 {
		return fmt.Errorf("fault: tornLowBits must be in [0,62] (got %d)", p.TornLowBits)
	}
	if p.SlowProc < 0 {
		return fmt.Errorf("fault: slowProc must be >= 0 (got %d)", p.SlowProc)
	}
	if p.HaltProc < 0 {
		return fmt.Errorf("fault: haltProc must be >= 0 (got %d)", p.HaltProc)
	}
	return nil
}

// Defaults applied where a knob is armed but its amount was left zero.
func (p Plan) delayCycles() int64 {
	if p.DelayCycles > 0 {
		return p.DelayCycles
	}
	return 8
}

func (p Plan) staleCycles() int64 {
	if p.StaleCycles > 0 {
		return p.StaleCycles
	}
	return 4
}

func (p Plan) tornWindow() int64 {
	if p.TornWindow > 0 {
		return p.TornWindow
	}
	return 1
}

func (p Plan) tornLowBits() int {
	if p.TornLowBits > 0 {
		return p.TornLowBits
	}
	return 20 // core.StepBits; fault cannot import core (core imports sim imports fault)
}

func (p Plan) moduleDelayCycles() int64 {
	if p.ModuleDelayCycles > 0 {
		return p.ModuleDelayCycles
	}
	return 4
}

func (p Plan) tornOwnerFirst() bool { return p.TornOrder == OwnerFirst }

// Canon renders every field in a fixed order for the cache canon key. Only
// called for enabled plans — cache.RequestKey skips disabled plans entirely
// so clean runs keep their established content addresses. The trailing
// ";stall=0/0" is the constant left by a removed runtime-stall fault: it
// keeps every armed plan's content address byte-identical.
func (p Plan) Canon() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	fmt.Fprintf(&b, ";drop=%g", p.DropProb)
	fmt.Fprintf(&b, ";delay=%g/%d", p.DelayProb, p.DelayCycles)
	fmt.Fprintf(&b, ";dup=%g", p.DupProb)
	fmt.Fprintf(&b, ";stale=%g/%d", p.StaleProb, p.StaleCycles)
	fmt.Fprintf(&b, ";torn=%g/%s/%d/%d", p.TornProb, p.TornOrder, p.TornWindow, p.TornLowBits)
	fmt.Fprintf(&b, ";mod=%g/%d", p.ModuleDelayProb, p.ModuleDelayCycles)
	fmt.Fprintf(&b, ";slow=%d/%d", p.SlowProc, p.SlowFactor)
	fmt.Fprintf(&b, ";halt=%d/%d", p.HaltProc, p.HaltAtCycle)
	b.WriteString(";stall=0/0")
	return b.String()
}

// Site kinds salt the hash so the drop decision at a site is independent of
// the delay decision at the same site.
const (
	siteDrop uint64 = iota + 1
	siteDelay
	siteDup
	siteStale
	siteTorn
	siteModule
)

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns a uniform float64 in [0,1) fully determined by the seed, the
// site kind and up to three site coordinates.
func (p Plan) roll(kind uint64, a, b, c int64) float64 {
	h := mix(uint64(p.Seed)) ^ mix(kind)
	h = mix(h ^ uint64(a))
	h = mix(h ^ uint64(b))
	h = mix(h ^ uint64(c))
	return float64(h>>11) / (1 << 53)
}
