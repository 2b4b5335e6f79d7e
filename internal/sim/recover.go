package sim

import "fmt"

// Recover configures deterministic ownership reclamation for halted
// processors: when a fault plan halts a processor, the machine waits
// AfterCycles of silence, then reclaims the dead processor's PC ownership —
// the transfer_PC handoff the paper's improved primitives license, since a
// PC names an iteration, not the processor running it. The orphan iteration
// resumes at the exact operation it halted on (nothing is re-executed, so
// read-modify-write accumulators are never double-applied) and the victim's
// unstarted chunk residue is folded back onto the live processors through
// the dispatch queue. The zero value disables recovery, leaving the
// halt-means-stall diagnosis of the fault layer unchanged.
type Recover struct {
	// AfterCycles is how many cycles a halted processor must stay silent
	// before its ownership is reclaimed; >= 1 arms recovery.
	AfterCycles int64 `json:"afterCycles,omitempty"`
	// MaxReclaims bounds reclamations per run (default 1). A stall that
	// persists past the budget is reported as recovery-exhausted.
	MaxReclaims int `json:"maxReclaims,omitempty"`
}

// Enabled reports whether recovery is armed. A disarmed Recover must be
// invisible: byte-identical cache canon and bit-identical simulation.
func (r Recover) Enabled() bool { return r.AfterCycles >= 1 }

func (r Recover) maxReclaims() int {
	if r.MaxReclaims > 0 {
		return r.MaxReclaims
	}
	return 1
}

// Check validates the recovery configuration.
func (r Recover) Check() error {
	if r.AfterCycles < 0 {
		return fmt.Errorf("sim: Recover.AfterCycles must be >= 0 (got %d)", r.AfterCycles)
	}
	if r.MaxReclaims < 0 {
		return fmt.Errorf("sim: Recover.MaxReclaims must be >= 0 (got %d; 0 means the default of 1)", r.MaxReclaims)
	}
	return nil
}

// Canon renders the armed recovery section for the cache canon key. Only
// called when Enabled: recovery changes scheduling, so a recovered run must
// content-address separately from a clean run of the same request.
func (r Recover) Canon() string {
	return fmt.Sprintf("after=%d;max=%d", r.AfterCycles, r.MaxReclaims)
}

// RecoveryReport is the cycle-exact record of one reclamation: who was
// quarantined, when ownership was reclaimed, which iteration resumed where,
// and how much pending work was folded back onto the live processors. It is
// a pure function of (config, plan, seed), so repeated runs produce
// deep-equal reports.
type RecoveryReport struct {
	// Recovered is true when the reclamation completed (the run finished
	// despite the halted processor).
	Recovered bool `json:"recovered"`
	// Proc is the quarantined processor.
	Proc int `json:"proc"`
	// HaltedAt is the cycle the victim went silent; ReclaimedAt the cycle
	// its PC ownership was forcibly reclaimed.
	HaltedAt    int64 `json:"haltedAt"`
	ReclaimedAt int64 `json:"reclaimedAt"`
	// Iteration is the orphan iteration the victim held mid-flight (0 when
	// it halted between iterations); ResumedOp the op index execution
	// resumed from.
	Iteration int64 `json:"iteration,omitempty"`
	ResumedOp int   `json:"resumedOp,omitempty"`
	// Reassigned counts the victim's unstarted chunk iterations folded back
	// onto live processors.
	Reassigned int64 `json:"reassigned,omitempty"`
	// Attempts is the number of reclamations performed.
	Attempts int `json:"attempts"`
	// CostCycles is the reclamation latency: cycles between the halt and
	// the reclaim (the quarantine window the run paid).
	CostCycles int64 `json:"costCycles"`
}

func (r *RecoveryReport) String() string {
	if r == nil {
		return "no recovery"
	}
	return fmt.Sprintf("reclaimed proc %d (halted at cycle %d, reclaimed at %d): resumed iteration %d at op %d, reassigned %d, attempts %d, cost %d cycles",
		r.Proc, r.HaltedAt, r.ReclaimedAt, r.Iteration, r.ResumedOp, r.Reassigned, r.Attempts, r.CostCycles)
}

// iterSpan is a confiscated chunk residue awaiting redistribution.
type iterSpan struct{ lo, hi int64 }

// scheduleReclaim quarantines a freshly-halted processor and schedules its
// ownership reclamation AfterCycles later (the lease the recovery layer
// grants a silent processor before declaring it dead).
func (m *Machine) scheduleReclaim(p *proc) {
	if p.reclaimScheduled || m.reclaims >= m.cfg.Recover.maxReclaims() {
		return
	}
	p.reclaimScheduled = true
	m.reclaims++
	m.post(m.now+m.cfg.Recover.AfterCycles, event{kind: evReclaim, p: int32(p.id)})
}

// reclaim forcibly takes the halted processor's PC ownership: the orphan
// iteration resumes on a recovery context (which inherits the victim's
// accounting slot — the quarantine window is charged as synchronization
// wait), and the victim's unstarted chunk residue joins the reassignment
// queue, served before fresh iterations so dispatch order stays
// non-decreasing (the deadlock-freedom requirement).
func (m *Machine) reclaim(p *proc) {
	rep := &RecoveryReport{
		Recovered:   true,
		Proc:        p.id,
		HaltedAt:    p.haltedAt,
		ReclaimedAt: m.now,
		Attempts:    m.reclaims,
		CostCycles:  m.now - p.haltedAt,
	}
	if p.chunkNext <= p.chunkEnd {
		rep.Reassigned = p.chunkEnd - p.chunkNext + 1
		m.reassigned = append(m.reassigned, iterSpan{p.chunkNext, p.chunkEnd})
		p.chunkNext, p.chunkEnd = 1, 0 // confiscated
	}
	if p.ip < len(p.ops) {
		rep.Iteration = p.iter
		rep.ResumedOp = p.ip
	}
	m.recovery = rep
	p.reclaimed = true
	p.waitSync += m.now - p.haltedAt
	m.step(p)
}
