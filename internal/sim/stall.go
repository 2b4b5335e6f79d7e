package sim

import (
	"fmt"
	"strings"

	"github.com/csrd-repro/datasync/internal/fault"
)

// BlockedProc is one processor stuck at the moment a stall was detected.
type BlockedProc struct {
	Proc  int    `json:"proc"`
	Iter  int64  `json:"iter"`
	Since int64  `json:"since"`
	Op    string `json:"op"`
	// Var/Have/Want describe the unsatisfied wait when the blocking op is
	// one: the processor needs Var >= Want but observes Have.
	Var   string `json:"var,omitempty"`
	VarID VarID  `json:"varId,omitempty"`
	Have  int64  `json:"have,omitempty"`
	Want  int64  `json:"want,omitempty"`
	wait  bool
}

// StallError is the structured diagnosis the simulator returns instead of a
// bare deadlock/livelock message when a fault plan is active: which
// processors are blocked on what, what was injected, and whether an
// injected fault explains the stall. The underlying message is preserved
// verbatim, so callers matching on "deadlock"/"MaxCycles" keep working.
type StallError struct {
	// Cycle is the simulated time the stall was detected.
	Cycle int64 `json:"cycle"`
	// MaxCycles marks a blown cycle cap (livelock) rather than a deadlock.
	MaxCycles bool `json:"maxCycles,omitempty"`
	// Blocked lists the stuck processors, lowest id first.
	Blocked []BlockedProc `json:"blocked,omitempty"`
	// Faults is what the plan actually injected before the stall.
	Faults fault.Counts `json:"faults"`
	// Explained is true when an injected fault accounts for the stall;
	// Explanation says how. An unexplained stall under an active plan
	// means the scheme itself (or the plan's premise) is suspect.
	Explained   bool   `json:"explained"`
	Explanation string `json:"explanation,omitempty"`
	// RecoveryArmed is true when the run had ownership reclamation enabled
	// and still stalled; RecoveryRefused says why recovery could not heal
	// this stall (no reclaimable halted processor, budget exhausted, or the
	// run ended before the reclaim fired). Recovery carries the report of a
	// reclamation that did happen before the residual stall.
	RecoveryArmed   bool            `json:"recoveryArmed,omitempty"`
	RecoveryRefused string          `json:"recoveryRefused,omitempty"`
	Recovery        *RecoveryReport `json:"recovery,omitempty"`

	msg string
}

func (e *StallError) Error() string {
	var b strings.Builder
	b.WriteString(e.msg)
	fmt.Fprintf(&b, "\ninjected faults: %s", e.Faults)
	if e.Explained {
		fmt.Fprintf(&b, "\ndiagnosis: %s", e.Explanation)
	} else {
		b.WriteString("\ndiagnosis: no injected fault explains this stall")
	}
	if e.Recovery != nil {
		fmt.Fprintf(&b, "\nrecovery: %s", e.Recovery)
	}
	if e.RecoveryRefused != "" {
		fmt.Fprintf(&b, "\nrecovery refused: %s", e.RecoveryRefused)
	}
	return b.String()
}

// stallError wraps a drain-time deadlock/livelock into the structured
// diagnosis. Attribution order: a halted processor explains any stall; a
// dropped broadcast of a variable somebody is blocked on explains that
// wait; pure slowdown faults explain a blown cycle cap.
func (m *Machine) stallError(base error, maxed bool) error {
	e := &StallError{Cycle: m.now, MaxCycles: maxed, Faults: m.inj.Counts(), msg: base.Error()}
	for _, p := range m.procs {
		if p.state != stateBlocked {
			continue
		}
		bp := BlockedProc{Proc: p.id, Iter: p.iter, Since: p.blockedSince, Op: "?"}
		if p.ip < len(p.ops) {
			op := p.ops[p.ip]
			bp.Op = m.describeOp(op)
			if op.Kind == OpWait && int(op.Var) < len(m.vars) {
				v := m.vars[op.Var]
				bp.Var, bp.VarID = v.name.String(), v.id
				bp.Have, bp.Want = v.visibleTo(p.id), op.Value
				bp.wait = true
			}
		}
		e.Blocked = append(e.Blocked, bp)
	}
	plan := m.inj.Plan()
	e.RecoveryArmed = m.cfg.Recover.Enabled()
	e.Recovery = m.recovery
	switch {
	case m.inj.HaltActive() && m.recovery == nil:
		e.Explained = true
		e.Explanation = fmt.Sprintf("processor %d was halted at cycle %d by the fault plan",
			plan.HaltProc, plan.HaltAtCycle)
		if e.RecoveryArmed {
			// A pending reclaim event keeps the heap non-empty, so a halt
			// can only outlive armed recovery by blowing the cycle cap
			// before the reclaim fires (or by halting a processor nobody
			// ever steps again).
			e.RecoveryRefused = fmt.Sprintf("the run ended before the reclamation scheduled %d cycles after the halt could fire", m.cfg.Recover.AfterCycles)
		}
	default:
		for _, bp := range e.Blocked {
			if !bp.wait {
				continue
			}
			if n := m.inj.VarDropped(int64(bp.VarID)); n > 0 {
				e.Explained = true
				e.Explanation = fmt.Sprintf("%d broadcast(s) of %s were dropped; proc %d needs %s >= %d but sees %d",
					n, bp.Var, bp.Proc, bp.Var, bp.Want, bp.Have)
				break
			}
		}
		if !e.Explained && maxed && plan.SlowsCycles() {
			e.Explained = true
			e.Explanation = "injected delays lengthened the run past MaxCycles"
		}
	}
	if e.RecoveryArmed && e.RecoveryRefused == "" {
		switch {
		case e.Recovery != nil:
			e.RecoveryRefused = fmt.Sprintf("the reclamation budget (%d) is spent; the residual stall has another cause", m.cfg.Recover.maxReclaims())
		default:
			e.RecoveryRefused = "no reclaimable halted processor explains this stall; ownership reclamation cannot heal it"
		}
	}
	return e
}
