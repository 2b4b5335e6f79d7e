// Package barrier implements the three barrier algorithms Example 4 of the
// paper compares:
//
//   - the counter barrier: one shared counter incremented atomically on
//     arrival and polled until all P processors have arrived — the polling
//     converges on one memory module and creates the hot spot;
//   - the Brooks butterfly barrier [6]: log2(P) pairwise stages over a
//     P x log2(P) flag matrix, no atomic operations, no hot spot;
//   - the paper's process-counter butterfly (Fig 5.4): the same
//     communication pattern over just P process counters — one per
//     processor, set_PC(i) then spin on PC[pid xor 2^(i-1)].step >= i —
//     needing "fewer synchronization variables and operations" than [6].
//
// All three exist as simulator op builders (for the hot-spot measurements
// of experiment E9) and as runtime implementations over goroutines.
// Rounds are monotone, so none of the implementations needs sense reversal.
package barrier

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/spin"
)

// Log2 returns log2(p) for a power of two, panicking otherwise (the
// butterfly pattern requires it; the paper notes the extension to other P
// needs only minor modification).
func Log2(p int) int {
	if p < 1 || p&(p-1) != 0 {
		panic(fmt.Sprintf("barrier: %d processors, need a power of two", p))
	}
	return bits.TrailingZeros(uint(p))
}

// ---- Simulator builders ----

// SimCounter is the counter barrier on a simulated machine: the counter
// lives in one memory module, arrivals are RMWs and the departure spin is
// polling traffic through the same module.
type SimCounter struct {
	m *sim.Machine // registers the ops' tags
	v sim.VarID
	p int
}

// NewSimCounter places the barrier counter in the given module.
func NewSimCounter(m *sim.Machine, module int) *SimCounter {
	return &SimCounter{m: m, v: m.NewMemVar("barrier:count", module, 0), p: m.Config().Processors}
}

// Ops returns one processor's ops for the round-th barrier episode
// (rounds are 1-based): arrive, then poll until all P arrived.
func (b *SimCounter) Ops(round int64) []sim.Op {
	return []sim.Op{
		sim.RMW(b.v, 1, b.m.Text(fmt.Sprintf("barrier:arrive r%d", round))),
		sim.WaitGE(b.v, round*int64(b.p), b.m.Text(fmt.Sprintf("barrier:depart r%d", round))),
	}
}

// Vars returns the number of synchronization variables used (always 1).
func (b *SimCounter) Vars() int { return 1 }

// SimFlags is the Brooks butterfly over a flag matrix. Flags may live in
// memory modules (spread round-robin, as on a machine without
// synchronization registers) or in broadcast registers.
type SimFlags struct {
	m         *sim.Machine // registers the ops' tags
	p, stages int
	flags     [][]sim.VarID // [stage][pid]
}

// NewSimFlags declares the P x log2(P) flag matrix.
func NewSimFlags(m *sim.Machine, res sim.Residence) *SimFlags {
	p := m.Config().Processors
	stages := Log2(p)
	b := &SimFlags{m: m, p: p, stages: stages}
	mods := m.Config().Modules
	for s := 0; s < stages; s++ {
		row := make([]sim.VarID, p)
		for pid := 0; pid < p; pid++ {
			name := fmt.Sprintf("bfly:f[%d][%d]", s, pid)
			if res == sim.Memory {
				row[pid] = m.NewMemVar(name, pid%mods, 0)
			} else {
				row[pid] = m.NewRegVar(name, 0)
			}
		}
		b.flags = append(b.flags, row)
	}
	return b
}

// Ops returns processor pid's ops for barrier round (1-based): per stage,
// publish own flag for the round, then wait for the partner's.
func (b *SimFlags) Ops(pid int, round int64) []sim.Op {
	var ops []sim.Op
	for s := 0; s < b.stages; s++ {
		partner := pid ^ (1 << s)
		ops = append(ops,
			sim.WriteVar(b.flags[s][pid], round, b.m.Text(fmt.Sprintf("bfly:set p%d s%d r%d", pid, s, round))),
			sim.WaitGE(b.flags[s][partner], round, b.m.Text(fmt.Sprintf("bfly:wait p%d s%d r%d", pid, s, round))),
		)
	}
	return ops
}

// Vars returns the number of synchronization variables used.
func (b *SimFlags) Vars() int { return b.p * b.stages }

// SimPCBarrier is the paper's Fig 5.4: one process counter per processor
// (a synchronization register; process == processor, so no folding and no
// ownership transfer), set_PC(i) then spin on the stage-i partner's step.
type SimPCBarrier struct {
	m         *sim.Machine // registers the ops' tags
	p, stages int
	pcs       []sim.VarID
}

// NewSimPCBarrier declares the P process counters.
func NewSimPCBarrier(m *sim.Machine) *SimPCBarrier {
	p := m.Config().Processors
	b := &SimPCBarrier{m: m, p: p, stages: Log2(p), pcs: make([]sim.VarID, p)}
	for pid := 0; pid < p; pid++ {
		b.pcs[pid] = m.NewRegVar(fmt.Sprintf("bfly:PC[%d]", pid), 0)
	}
	return b
}

// Ops returns processor pid's ops for barrier round (1-based). Stage
// numbering continues across rounds so the step stays monotone.
func (b *SimPCBarrier) Ops(pid int, round int64) []sim.Op {
	var ops []sim.Op
	base := (round - 1) * int64(b.stages)
	for s := 0; s < b.stages; s++ {
		step := base + int64(s) + 1
		partner := pid ^ (1 << s)
		ops = append(ops,
			sim.WriteVar(b.pcs[pid], step, b.m.Text(fmt.Sprintf("pcbfly:set p%d i%d", pid, step))),
			sim.WaitGE(b.pcs[partner], step, b.m.Text(fmt.Sprintf("pcbfly:wait p%d i%d", pid, step))),
		)
	}
	return ops
}

// Vars returns the number of synchronization variables used (P).
func (b *SimPCBarrier) Vars() int { return b.p }

// ---- Runtime implementations ----
//
// All runtime barriers spin through the shared tiered backoff of package
// spin (hot re-check → Gosched → capped parked sleep) instead of bare
// Gosched loops, and keep every per-participant flag on its own cache line:
// a participant publishing its arrival must not invalidate the line a
// neighbor is spinning on. Constructors take an optional spin.Config (to
// arm the livelock watchdog); by default a wait has no deadline.

// backoff builds the Backoff every wait of a barrier starts from, once,
// from the constructors' optional trailing config argument.
func backoff(cfg []spin.Config) spin.Backoff {
	var c spin.Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	return spin.New(c)
}

// StallError reports a barrier wait that outlived the armed watchdog
// deadline: the stuck participant, its round, and the underlying deadline
// diagnosis. It is returned, not panicked, so a participant that never
// arrives degrades into an error the caller can report, as
// codegen.RunGoroutines reports a stuck wait.
type StallError struct {
	PID   int
	Round int64
	Err   *spin.DeadlineError
}

func (e *StallError) Error() string {
	return fmt.Sprintf("barrier: participant %d stuck in round %d: %v", e.PID, e.Round, e.Err)
}

// Unwrap exposes the deadline error to errors.As/Is.
func (e *StallError) Unwrap() error { return e.Err }

// await spins cond under the barrier's backoff tiers, returning a
// *StallError when the watchdog deadline (if armed) passes: a deadlocked
// barrier fails diagnosably instead of hanging or crashing the process.
func await(b spin.Backoff, pid int, round int64, cond func() bool) error {
	if err := spin.Until(b, cond); err != nil {
		return &StallError{PID: pid, Round: round, Err: err.(*spin.DeadlineError)}
	}
	return nil
}

// Counter is the runtime counter barrier.
type Counter struct {
	p       int64
	backoff spin.Backoff
	count   atomic.Int64
	round   []int64
}

// NewCounter builds a counter barrier for p participants.
func NewCounter(p int, cfg ...spin.Config) *Counter {
	if p < 1 {
		panic("barrier: need at least one participant")
	}
	return &Counter{p: int64(p), backoff: backoff(cfg), round: make([]int64, p)}
}

// Await blocks participant pid until all participants of the current round
// have arrived. It returns a *StallError when an armed watchdog expires.
func (b *Counter) Await(pid int) error {
	b.round[pid]++
	r := b.round[pid]
	b.count.Add(1)
	return await(b.backoff, pid, r, func() bool { return b.count.Load() >= r*b.p })
}

// Flags is the runtime Brooks butterfly barrier.
type Flags struct {
	p, stages int
	backoff   spin.Backoff
	flags     [][]spin.Padded // [stage][pid], one cache line per flag
	round     []int64
}

// NewFlags builds a butterfly barrier over flags for p participants
// (p must be a power of two).
func NewFlags(p int, cfg ...spin.Config) *Flags {
	stages := Log2(p)
	b := &Flags{p: p, stages: stages, backoff: backoff(cfg), round: make([]int64, p)}
	for s := 0; s < stages; s++ {
		b.flags = append(b.flags, make([]spin.Padded, p))
	}
	return b
}

// Await blocks participant pid until all participants arrive. It returns a
// *StallError when an armed watchdog expires.
func (b *Flags) Await(pid int) error {
	b.round[pid]++
	r := b.round[pid]
	for s := 0; s < b.stages; s++ {
		partner := pid ^ (1 << s)
		b.flags[s][pid].Store(r)
		flag := &b.flags[s][partner]
		if err := await(b.backoff, pid, r, func() bool { return flag.Load() >= r }); err != nil {
			return err
		}
	}
	return nil
}

// PCButterfly is the runtime process-counter butterfly of Fig 5.4.
type PCButterfly struct {
	p, stages int
	backoff   spin.Backoff
	pcs       []spin.Padded
	step      []int64
}

// NewPCButterfly builds the barrier for p participants (a power of two).
func NewPCButterfly(p int, cfg ...spin.Config) *PCButterfly {
	return &PCButterfly{p: p, stages: Log2(p), backoff: backoff(cfg),
		pcs: make([]spin.Padded, p), step: make([]int64, p)}
}

// Await blocks participant pid until all participants arrive: per stage,
// set_PC(step) then spin while PC[pid xor 2^(i-1)].step < step. It returns
// a *StallError when an armed watchdog expires.
func (b *PCButterfly) Await(pid int) error {
	for s := 0; s < b.stages; s++ {
		b.step[pid]++
		step := b.step[pid]
		b.pcs[pid].Store(step)
		pc := &b.pcs[pid^(1<<s)]
		if err := await(b.backoff, pid, step, func() bool { return pc.Load() >= step }); err != nil {
			return err
		}
	}
	return nil
}
