package barrier

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/spin"
)

// The paper notes that "with a minor modification, b_barrier() can work
// even when P is not a power of 2 [11]" — reference [11] being Hensgen,
// Finkel and Manber's dissemination barrier. In round r, stage s, each
// participant signals participant (pid + 2^s) mod P and waits for the
// signal from (pid - 2^s) mod P, over ceil(log2 P) stages. Like the
// butterfly it needs no atomic operations; it uses P*ceil(log2 P) flags
// (or P process counters when the per-stage signals are folded into one
// monotone counter per participant, as SimPCDissemination does).

// Stages returns ceil(log2 p), the dissemination round count.
func Stages(p int) int {
	if p < 1 {
		panic("barrier: need at least one participant")
	}
	s := 0
	for 1<<s < p {
		s++
	}
	return s
}

// SimDissemination is the flag-matrix dissemination barrier on a simulated
// machine, valid for any P.
type SimDissemination struct {
	m         *sim.Machine // registers the ops' tags
	p, stages int
	flags     [][]sim.VarID // [stage][pid]: value = round signaled
}

// NewSimDissemination declares the flag matrix with the given residence.
func NewSimDissemination(m *sim.Machine, res sim.Residence) *SimDissemination {
	p := m.Config().Processors
	b := &SimDissemination{m: m, p: p, stages: Stages(p)}
	mods := m.Config().Modules
	for s := 0; s < b.stages; s++ {
		row := make([]sim.VarID, p)
		for pid := 0; pid < p; pid++ {
			name := fmt.Sprintf("diss:f[%d][%d]", s, pid)
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

// Ops returns processor pid's ops for barrier round (1-based).
func (b *SimDissemination) Ops(pid int, round int64) []sim.Op {
	var ops []sim.Op
	for s := 0; s < b.stages; s++ {
		to := (pid + (1 << s)) % b.p
		from := (pid - (1<<s)%b.p + b.p) % b.p
		ops = append(ops,
			sim.WriteVar(b.flags[s][to], round, b.m.Text(fmt.Sprintf("diss:signal p%d->p%d s%d r%d", pid, to, s, round))),
			sim.WaitGE(b.flags[s][pid], round, b.m.Text(fmt.Sprintf("diss:wait p%d<-p%d s%d r%d", pid, from, s, round))),
		)
	}
	return ops
}

// Vars returns the number of synchronization variables used.
func (b *SimDissemination) Vars() int { return b.p * b.stages }

// SimPCDissemination folds each participant's per-stage signals into one
// monotone process counter (step = completed global stage number), the
// PC-style variable economy of Fig 5.4 applied to the dissemination
// pattern: P variables for any P.
type SimPCDissemination struct {
	m         *sim.Machine // registers the ops' tags
	p, stages int
	pcs       []sim.VarID
}

// NewSimPCDissemination declares the P process counters.
func NewSimPCDissemination(m *sim.Machine) *SimPCDissemination {
	p := m.Config().Processors
	b := &SimPCDissemination{m: m, p: p, stages: Stages(p), pcs: make([]sim.VarID, p)}
	for pid := 0; pid < p; pid++ {
		b.pcs[pid] = m.NewRegVar(fmt.Sprintf("diss:PC[%d]", pid), 0)
	}
	return b
}

// Ops returns processor pid's ops for barrier round (1-based). A processor
// waits on the *sender's* PC reaching the global stage number: the sender
// at distance 2^s behind it must have completed stage s of this round.
func (b *SimPCDissemination) Ops(pid int, round int64) []sim.Op {
	var ops []sim.Op
	base := (round - 1) * int64(b.stages)
	for s := 0; s < b.stages; s++ {
		step := base + int64(s) + 1
		from := (pid - (1<<s)%b.p + b.p) % b.p
		ops = append(ops,
			sim.WriteVar(b.pcs[pid], step, b.m.Text(fmt.Sprintf("dissPC:set p%d i%d", pid, step))),
			sim.WaitGE(b.pcs[from], step, b.m.Text(fmt.Sprintf("dissPC:wait p%d<-p%d i%d", pid, from, step))),
		)
	}
	return ops
}

// Vars returns the number of synchronization variables used (P).
func (b *SimPCDissemination) Vars() int { return b.p }

// Dissemination is the runtime dissemination barrier for any P, spinning
// through the shared tiered backoff over cache-line-padded flags like the
// barriers in barrier.go.
type Dissemination struct {
	p, stages int
	backoff   spin.Backoff
	flags     [][]spin.Padded
	round     []int64
}

// NewDissemination builds the barrier for p participants (any p >= 1).
func NewDissemination(p int, cfg ...spin.Config) *Dissemination {
	stages := Stages(p)
	b := &Dissemination{p: p, stages: stages, backoff: backoff(cfg), round: make([]int64, p)}
	for s := 0; s < stages; s++ {
		b.flags = append(b.flags, make([]spin.Padded, p))
	}
	return b
}

// Await blocks participant pid until all participants arrive. It returns a
// *StallError when an armed watchdog expires.
func (b *Dissemination) Await(pid int) error {
	b.round[pid]++
	r := b.round[pid]
	for s := 0; s < b.stages; s++ {
		to := (pid + (1 << s)) % b.p
		b.flags[s][to].Store(r)
		flag := &b.flags[s][pid]
		if err := await(b.backoff, pid, r, func() bool { return flag.Load() >= r }); err != nil {
			return err
		}
	}
	return nil
}
