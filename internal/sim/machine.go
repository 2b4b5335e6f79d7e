package sim

import (
	"fmt"
	"math"
	"strings"

	"github.com/csrd-repro/datasync/internal/fault"
)

// Config describes the simulated machine.
type Config struct {
	// Processors is the number of processors P (required, >= 1).
	Processors int
	// BusLatency is the cycles one synchronization-bus broadcast occupies
	// the bus. 0 means writes commit (become globally visible) at issue.
	BusLatency int64
	// BusCoverage enables the paper's section-6 optimization: an issued
	// write is dropped if a later write to the same variable from the same
	// processor arrives before the former gains bus access.
	BusCoverage bool
	// MemLatency is the service time of one memory-module request
	// (defaults to 1).
	MemLatency int64
	// Modules is the number of single-ported memory modules (defaults to 1).
	Modules int
	// SyncOpCost is the local issue cost of a synchronization operation
	// (a write issue, or a satisfied wait check). Taken literally; 0 is free.
	SyncOpCost int64
	// SchedOverhead is the dispatch cost per iteration under
	// self-scheduling (grabbing the next index from the work queue).
	SchedOverhead int64
	// DataLatency is the time for a statement's array writes to become
	// visible in shared memory. The paper's correctness requirement (1)
	// (section 2.2) demands that a dependence source signal completion only
	// after this point; code generators insert a commit phase of this
	// length between a writing statement and its publication.
	DataLatency int64
	// MaxCycles aborts the simulation if exceeded, catching livelock
	// (defaults to 100,000,000).
	MaxCycles int64
	// Dispatch selects the self-scheduling order (RunLoop only). The
	// folded process-counter protocol is deadlock-free only when
	// iterations are dispatched in non-decreasing order (DispatchInOrder,
	// DispatchChunked); DispatchReversed exists to demonstrate the
	// scheduling-order hazard the paper's reference [23] studies.
	Dispatch Dispatch
	// ChunkSize is the iterations per dispatch under DispatchChunked
	// (defaults to 4). The scheduling overhead is paid once per chunk.
	ChunkSize int64
	// FaultPlan injects deterministic faults at the sync-bus and
	// memory-module hooks (see package fault). The zero value injects
	// nothing and leaves the simulation bit-for-bit identical to a build
	// without the fault layer.
	FaultPlan fault.Plan
	// Recover arms deterministic ownership reclamation for processors the
	// fault plan halts: the machine quarantines a silent processor, waits
	// Recover.AfterCycles, then reclaims its PC ownership, resumes the
	// orphan iteration where it stopped and folds the victim's unstarted
	// chunk residue onto the live processors. The zero value disables
	// recovery and is invisible (bit-identical run, identical cache canon).
	Recover Recover
}

// Dispatch is a self-scheduling policy.
type Dispatch int

// Dispatch policies.
const (
	// DispatchInOrder hands out iterations 1, 2, 3, ... one at a time.
	DispatchInOrder Dispatch = iota
	// DispatchChunked hands out consecutive chunks of ChunkSize
	// iterations, each executed in order.
	DispatchChunked
	// DispatchReversed hands out iterations from the last down — an
	// unsafe order that deadlocks dependent loops when P processors all
	// hold late iterations whose sources were never dispatched.
	DispatchReversed
)

func (d Dispatch) String() string {
	switch d {
	case DispatchInOrder:
		return "in-order"
	case DispatchChunked:
		return "chunked"
	case DispatchReversed:
		return "reversed"
	}
	return fmt.Sprintf("Dispatch(%d)", int(d))
}

// Check validates the configuration. Zero values of MemLatency, Modules,
// MaxCycles and ChunkSize keep their documented defaults; everything else
// out of range is an input error, reported rather than panicked so services
// and CLIs can refuse a bad request without crashing the process.
func (c Config) Check() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("sim: Processors must be >= 1 (got %d)", c.Processors)
	case c.BusLatency < 0:
		return fmt.Errorf("sim: BusLatency must be >= 0 (got %d)", c.BusLatency)
	case c.MemLatency < 0:
		return fmt.Errorf("sim: MemLatency must be >= 0 (got %d; 0 means the default of 1)", c.MemLatency)
	case c.Modules < 0:
		return fmt.Errorf("sim: Modules must be >= 0 (got %d; 0 means the default of 1)", c.Modules)
	case c.SyncOpCost < 0:
		return fmt.Errorf("sim: SyncOpCost must be >= 0 (got %d)", c.SyncOpCost)
	case c.SchedOverhead < 0:
		return fmt.Errorf("sim: SchedOverhead must be >= 0 (got %d)", c.SchedOverhead)
	case c.DataLatency < 0:
		return fmt.Errorf("sim: DataLatency must be >= 0 (got %d)", c.DataLatency)
	case c.MaxCycles < 0:
		return fmt.Errorf("sim: MaxCycles must be >= 0 (got %d; 0 means the default of 100,000,000)", c.MaxCycles)
	case c.ChunkSize < 0:
		return fmt.Errorf("sim: ChunkSize must be >= 0 (got %d; 0 means the default of 4)", c.ChunkSize)
	case c.Dispatch != DispatchInOrder && c.Dispatch != DispatchChunked && c.Dispatch != DispatchReversed:
		return fmt.Errorf("sim: unknown Dispatch policy %d", int(c.Dispatch))
	}
	if err := c.FaultPlan.Check(); err != nil {
		return err
	}
	if c.FaultPlan.SlowFactor >= 2 && c.FaultPlan.SlowProc >= c.Processors {
		return fmt.Errorf("sim: fault slowProc %d out of range for %d processors", c.FaultPlan.SlowProc, c.Processors)
	}
	if c.FaultPlan.HaltAtCycle >= 1 && c.FaultPlan.HaltProc >= c.Processors {
		return fmt.Errorf("sim: fault haltProc %d out of range for %d processors", c.FaultPlan.HaltProc, c.Processors)
	}
	if err := c.Recover.Check(); err != nil {
		return err
	}
	if c.Recover.Enabled() && c.Processors < 2 {
		return fmt.Errorf("sim: recovery needs at least 2 processors (got %d): with a single processor there is nobody left to reclaim ownership for", c.Processors)
	}
	return nil
}

func (c Config) normalized() Config {
	if err := c.Check(); err != nil {
		panic(err) // direct library misuse; Run entry points call Check first
	}
	if c.MemLatency == 0 {
		c.MemLatency = 1
	}
	if c.Modules == 0 {
		c.Modules = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 100_000_000
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 4
	}
	return c
}

// pending is an issued-but-uncommitted register write.
type pending struct {
	proc int
	val  int64
}

type syncVar struct {
	id        VarID
	name      Label
	res       Residence
	module    int
	committed int64
	pend      []*pending // register writes in flight (bus queue + active)
	waiters   []*blockedWait
	// minWait is the smallest threshold among waiters (valid only when
	// waiters is non-empty). A commit below it cannot release anyone, so
	// wake can skip the waiter scan entirely — the batching invariant that
	// makes value-advancing commits O(1) per syncVar.
	minWait int64
}

// addWaiter parks w on v, maintaining the minWait frontier.
func (v *syncVar) addWaiter(w *blockedWait) {
	if len(v.waiters) == 0 || w.min < v.minWait {
		v.minWait = w.min
	}
	v.waiters = append(v.waiters, w)
}

// visibleTo returns the value processor p observes: the committed value,
// merged with p's own in-flight writes (a processor always sees its own
// writes in its local register image).
func (v *syncVar) visibleTo(p int) int64 {
	val := v.committed
	for _, pe := range v.pend {
		if pe.proc == p && pe.val > val {
			val = pe.val
		}
	}
	return val
}

type blockedWait struct {
	p   *proc
	min int64
	tag Label
}

type module struct {
	busyUntil int64
	jobs      int
	accesses  int64
	queueWait int64
	maxQueue  int
}

// enqueue admits one request at time now and returns its service interval.
func (mo *module) enqueue(now, latency int64) (start, end int64) {
	start = now
	if mo.busyUntil > start {
		start = mo.busyUntil
	}
	end = start + latency
	mo.busyUntil = end
	mo.accesses++
	mo.queueWait += start - now
	mo.jobs++
	if mo.jobs > mo.maxQueue {
		mo.maxQueue = mo.jobs
	}
	return start, end
}

type busEntry struct {
	v     *syncVar
	pe    *pending
	seen  bool  // started broadcasting (no longer coverable)
	extra int64 // injected extra bus-hold cycles (fault delay)
	torn  *tornSplit
	dup   bool // injected duplicate delivery
}

// tornSplit describes an injected torn two-field commit: which half of the
// packed word lands first and how long until the second half.
type tornSplit struct {
	lowBits    int
	window     int64
	ownerFirst bool
}

type procState int

const (
	stateRunning procState = iota
	stateBlocked
	stateDone
)

type proc struct {
	id           int
	ops          []Op
	ip           int
	iter         int64
	state        procState
	blockedSince int64
	finishedAt   int64
	busy         int64
	waitSync     int64
	waitMem      int64
	iterations   int64

	// chunked dispatch: remaining iterations of the held chunk
	chunkNext, chunkEnd int64

	// recovery: halted/haltedAt note the first halt detection (the
	// quarantine clock — distinct from blockedSince, which a preceding
	// wait-release may already have charged); reclaimScheduled marks a
	// pending reclaim event; reclaimed marks a revived execution context
	// whose halt check is permanently bypassed (the processor is dead, but
	// its orphaned work continues on the recovery context it became).
	halted           bool
	haltedAt         int64
	reclaimScheduled bool
	reclaimed        bool
}

// Machine is one simulation instance. Declare synchronization variables,
// then call RunLoop or RunProcesses exactly once.
type Machine struct {
	cfg  Config
	mem  *Mem
	vars []*syncVar
	mods []*module

	// busQueue[busHead:] are the broadcasts waiting for the bus. Dequeue
	// advances busHead (nil-ing the vacated slot) instead of reslicing, so
	// the backing array is reused once the queue drains empty.
	busQueue  []*busEntry
	busHead   int
	busActive bool

	events eventQ
	now    int64
	seq    int64

	// Per-run freelists for the commit loop's transient objects.
	pendFree  []*pending
	entryFree []*busEntry
	waitFree  []*blockedWait

	procs     []*proc
	program   Program
	nextIter  int64
	lastIter  int64
	selfSched bool
	ran       bool
	err       error

	busIssued int64
	busSaved  int64
	syncOps   int64
	polls     int64

	inj         *fault.Injector // nil unless cfg.FaultPlan injects simulator faults
	staleChecks int64           // deterministic coordinate for stale-read rolls

	// recovery state: confiscated chunk spans awaiting redistribution,
	// reclamations performed, and the report of the last one.
	reassigned []iterSpan
	reclaims   int
	recovery   *RecoveryReport

	tracing     bool
	traceEvents []TraceEvent

	syncTracing bool
	syncTrace   []SyncEvent
}

// New builds a machine with the given configuration.
func New(cfg Config) *Machine {
	m := &Machine{cfg: cfg.normalized(), mem: NewMem()}
	if m.cfg.FaultPlan.SimEnabled() {
		m.inj = fault.NewInjector(m.cfg.FaultPlan)
	}
	return m
}

// Config returns the (normalized) machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Mem returns the machine's data memory, for building workload programs.
func (m *Machine) Mem() *Mem { return m.mem }

// NewRegVar declares a synchronization-register variable (broadcast on the
// sync bus) with the given initial value.
func (m *Machine) NewRegVar(name string, init int64) VarID {
	id := VarID(len(m.vars))
	m.vars = append(m.vars, &syncVar{id: id, name: Text(name), res: Register, committed: init})
	return id
}

// NewMemVar declares a memory-resident synchronization variable in the
// given module.
func (m *Machine) NewMemVar(name string, mod int, init int64) VarID {
	return m.NewLabeledMemVar(Text(name), mod, init)
}

// NewLabeledMemVar is NewMemVar with the name kept as a Label, rendered
// only when VarName or a stall report asks: data-oriented schemes declare
// a variable per element or per renamed copy on every run.
func (m *Machine) NewLabeledMemVar(name Label, mod int, init int64) VarID {
	if mod < 0 || mod >= m.cfg.Modules {
		panic(fmt.Sprintf("sim: module %d out of range [0,%d)", mod, m.cfg.Modules))
	}
	id := VarID(len(m.vars))
	m.vars = append(m.vars, &syncVar{id: id, name: name, res: Memory, module: mod, committed: init})
	return id
}

// VarValue returns a variable's committed value (for post-run assertions).
func (m *Machine) VarValue(v VarID) int64 { return m.vars[v].committed }

// RunLoop executes iterations 1..iters of the program on the machine's
// processors under in-order self-scheduling and returns the run statistics.
func (m *Machine) RunLoop(iters int64, prog Program) (Stats, error) {
	m.startRun()
	m.selfSched = true
	m.program = prog
	m.nextIter, m.lastIter = 1, iters
	if m.cfg.Dispatch == DispatchReversed {
		m.nextIter = iters
	}
	for _, p := range m.procs {
		m.post(0, event{kind: evDispatch, p: p})
	}
	return m.drain()
}

// RunProcesses executes exactly one fixed program per processor (no
// scheduling), as in the barrier and FFT experiments where process == processor.
func (m *Machine) RunProcesses(progs [][]Op) (Stats, error) {
	if len(progs) != m.cfg.Processors {
		return Stats{}, fmt.Errorf("sim: %d programs for %d processors", len(progs), m.cfg.Processors)
	}
	m.startRun()
	for i, p := range m.procs {
		p.ops = progs[i]
		p.iterations = 1
		m.post(0, event{kind: evStep, p: p})
	}
	return m.drain()
}

func (m *Machine) startRun() {
	if m.ran {
		panic("sim: Machine can run only once")
	}
	m.ran = true
	m.procs = make([]*proc, m.cfg.Processors)
	m.mods = make([]*module, m.cfg.Modules)
	for i := range m.mods {
		m.mods[i] = &module{}
	}
	for i := range m.procs {
		// chunkNext > chunkEnd marks "no chunk held".
		m.procs[i] = &proc{id: i, state: stateRunning, chunkNext: 1, chunkEnd: 0}
	}
}

func (m *Machine) drain() (Stats, error) {
	maxed := false
	for m.events.len() > 0 && m.err == nil {
		ev := m.events.pop()
		if ev.t > m.cfg.MaxCycles {
			maxed = true
			m.err = fmt.Errorf("sim: exceeded MaxCycles=%d (livelock?)", m.cfg.MaxCycles)
			break
		}
		m.now = ev.t
		m.exec(&ev)
	}
	if m.err == nil {
		if blocked := m.blockedReport(); blocked != "" {
			m.err = fmt.Errorf("sim: deadlock at cycle %d:\n%s", m.now, blocked)
		}
	}
	if m.err != nil && m.inj != nil {
		// Under an active fault plan a bare deadlock/livelock message is
		// not enough: wrap it in the structured stall diagnosis.
		m.err = m.stallError(m.err, maxed)
	}
	return m.collectStats(), m.err
}

func (m *Machine) blockedReport() string {
	var b strings.Builder
	for _, p := range m.procs {
		if p.state == stateBlocked {
			op := "?"
			if p.ip < len(p.ops) {
				op = m.describeOp(p.ops[p.ip])
			}
			fmt.Fprintf(&b, "  proc %d iter %d blocked since %d on %s\n", p.id, p.iter, p.blockedSince, op)
		}
	}
	return b.String()
}

func (m *Machine) describeOp(op Op) string {
	s := op.String()
	if int(op.Var) < len(m.vars) && (op.Kind == OpWait || op.Kind == OpWrite || op.Kind == OpRMW) {
		s += fmt.Sprintf(" [%s=%d]", m.vars[op.Var].name.String(), m.vars[op.Var].committed)
	}
	return s
}

// dispatch hands the next loop iteration to an idle processor according to
// the configured self-scheduling policy.
func (m *Machine) dispatch(p *proc) {
	var it int64
	overhead := int64(0)
	switch m.cfg.Dispatch {
	case DispatchChunked:
		if p.chunkNext > p.chunkEnd {
			switch {
			case len(m.reassigned) > 0:
				// Confiscated residue of a reclaimed processor is served
				// before fresh chunks: those are the lowest-numbered pending
				// iterations, so redistribution keeps the dispatch order
				// non-decreasing (the deadlock-freedom requirement).
				span := m.reassigned[0]
				m.reassigned = m.reassigned[1:]
				p.chunkNext, p.chunkEnd = span.lo, span.hi
			case m.nextIter > m.lastIter:
				p.state = stateDone
				p.finishedAt = m.now
				return
			default:
				lo := m.nextIter
				hi := lo + m.cfg.ChunkSize - 1
				if hi > m.lastIter {
					hi = m.lastIter
				}
				m.nextIter = hi + 1
				p.chunkNext, p.chunkEnd = lo, hi
			}
			overhead = m.cfg.SchedOverhead // paid once per chunk
		}
		it = p.chunkNext
		p.chunkNext++
	case DispatchReversed:
		if m.nextIter < 1 {
			p.state = stateDone
			p.finishedAt = m.now
			return
		}
		it = m.nextIter
		m.nextIter--
		overhead = m.cfg.SchedOverhead
	default:
		if m.nextIter > m.lastIter {
			p.state = stateDone
			p.finishedAt = m.now
			return
		}
		it = m.nextIter
		m.nextIter++
		overhead = m.cfg.SchedOverhead
	}
	p.iter = it
	p.iterations++
	p.ops = m.program(it)
	p.ip = 0
	if overhead > 0 {
		p.busy += overhead
		m.post(m.now+overhead, event{kind: evStep, p: p})
		return
	}
	m.step(p)
}

// step advances a processor from the current time until it blocks,
// schedules a future event, or finishes.
func (m *Machine) step(p *proc) {
	if m.inj != nil && !p.reclaimed && m.inj.Halted(p.id, m.now) {
		// The processor is dead: it never executes another op. It stays
		// blocked so the drain-time diagnosis can name it and everything
		// transitively depending on it. With recovery armed, its PC
		// ownership is reclaimed AfterCycles later instead. A stray event
		// may re-step a halted processor; only the first halt sets the
		// quarantine clock.
		if !p.halted {
			p.halted = true
			p.haltedAt = m.now
			p.state = stateBlocked
			p.blockedSince = m.now
		}
		if m.cfg.Recover.Enabled() {
			m.scheduleReclaim(p)
		}
		return
	}
	p.state = stateRunning
	for {
		if p.ip >= len(p.ops) {
			if m.selfSched {
				m.dispatch(p)
				return
			}
			p.state = stateDone
			p.finishedAt = m.now
			return
		}
		op := &p.ops[p.ip]
		switch op.Kind {
		case OpCompute:
			p.ip++
			cycles := op.Cycles
			if m.inj != nil {
				cycles += m.inj.SlowExtra(p.id, op.Cycles)
			}
			p.busy += cycles
			if cycles == 0 {
				if op.Exec != nil {
					op.Exec()
				}
				m.recordAccess(p, op)
				continue
			}
			m.addTrace(p, m.now, m.now+cycles, TraceCompute, op.Tag)
			m.post(m.now+cycles, event{kind: evCompute, p: p, op: op})
			return

		case OpWrite:
			v := m.vars[op.Var]
			m.syncOps++
			// Signals are recorded at issue time: the writer's knowledge at
			// the moment of the write is the happens-before point a released
			// waiter inherits, and a local waiter may observe the write
			// before its broadcast commits.
			m.recordSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: SyncSignal, Var: v.id, Value: op.Value}, op.Tag)
			if v.res == Register {
				m.busIssue(v, op.Value, p.id)
				if op.Exec != nil {
					op.Exec()
				}
				p.ip++
				p.busy += m.cfg.SyncOpCost
				if m.cfg.SyncOpCost > 0 {
					m.post(m.now+m.cfg.SyncOpCost, event{kind: evStep, p: p})
					return
				}
				continue
			}
			// Memory write: blocks through the module queue.
			_, end := m.mods[v.module].enqueue(m.now, m.memLatency(v.module, p.id))
			m.addTrace(p, m.now, end, TraceService, op.Tag)
			p.waitMem += end - m.now
			p.ip++
			p.state = stateBlocked
			p.blockedSince = m.now
			m.post(end, event{kind: evMemWrite, p: p, op: op, v: v})
			return

		case OpWait:
			v := m.vars[op.Var]
			m.syncOps++
			if v.visibleTo(p.id) >= op.Value {
				if m.inj != nil && v.res == Register {
					m.staleChecks++
					if d := m.inj.StaleRead(m.staleChecks, p.id, int64(v.id)); d > 0 {
						// The local register image lags the bus: the
						// processor keeps spinning on the stale value for d
						// cycles, then re-executes the wait.
						p.state = stateBlocked
						p.blockedSince = m.now
						p.waitSync += d
						m.addTrace(p, m.now, m.now+d, TraceWait, op.Tag)
						m.post(m.now+d, event{kind: evStep, p: p})
						return
					}
				}
				m.recordSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: SyncWaitDone, Var: v.id, Value: op.Value}, op.Tag)
				if op.Exec != nil {
					op.Exec()
				}
				p.ip++
				p.busy += m.cfg.SyncOpCost
				if m.cfg.SyncOpCost > 0 {
					m.post(m.now+m.cfg.SyncOpCost, event{kind: evStep, p: p})
					return
				}
				continue
			}
			p.state = stateBlocked
			p.blockedSince = m.now
			if v.res == Register {
				// Spin on the local register image: woken by commit.
				v.addWaiter(m.allocWait(p, op.Value, op.Tag))
				return
			}
			// Poll through the memory module: each probe is a module access.
			m.poll(p, v, op)
			return

		case OpWriteIf:
			v := m.vars[op.Var]
			m.syncOps++
			if v.res != Register {
				panic(fmt.Sprintf("sim: conditional write on memory variable %s", v.name.String()))
			}
			if op.fires(v.visibleTo(p.id)) {
				m.recordSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: SyncSignal, Var: v.id, Value: op.Value}, op.Tag)
				m.busIssue(v, op.Value, p.id)
			}
			if op.Exec != nil {
				op.Exec()
			}
			p.ip++
			p.busy += m.cfg.SyncOpCost
			if m.cfg.SyncOpCost > 0 {
				m.post(m.now+m.cfg.SyncOpCost, event{kind: evStep, p: p})
				return
			}
			continue

		case OpRMW:
			v := m.vars[op.Var]
			m.syncOps++
			if v.res != Memory {
				panic(fmt.Sprintf("sim: RMW on register variable %s", v.name.String()))
			}
			_, end := m.mods[v.module].enqueue(m.now, m.memLatency(v.module, p.id))
			m.addTrace(p, m.now, end, TraceService, op.Tag)
			p.waitMem += end - m.now
			p.ip++
			p.state = stateBlocked
			p.blockedSince = m.now
			m.post(end, event{kind: evRMW, p: p, op: op, v: v})
			return

		default:
			panic(fmt.Sprintf("sim: unknown op kind %d", op.Kind))
		}
	}
}

// memLatency returns the service time for the next access to module mod,
// including any injected slow-bank delay.
func (m *Machine) memLatency(mod, procID int) int64 {
	lat := m.cfg.MemLatency
	if m.inj != nil {
		lat += m.inj.ModuleDelay(m.mods[mod].accesses, mod, procID)
	}
	return lat
}

// poll issues one busy-wait probe of a memory variable through its module.
func (m *Machine) poll(p *proc, v *syncVar, op *Op) {
	m.polls++
	_, end := m.mods[v.module].enqueue(m.now, m.memLatency(v.module, p.id))
	m.post(end, event{kind: evPoll, p: p, op: op, v: v})
}

// wake resumes register waiters whose condition a commit has satisfied. The
// minWait frontier makes the common case — a commit that advances the value
// but releases nobody — O(1): the waiter list is only scanned when the
// committed value actually crosses some waiter's threshold, so a same-cycle
// burst of commits touches each syncVar's waiters at most once per
// releasing commit. Survivors are filtered in place over v.waiters[:0] and
// the vacated tail is nil-ed so released waiters aren't pinned by the
// backing array.
func (m *Machine) wake(v *syncVar) {
	if len(v.waiters) == 0 || v.committed < v.minWait {
		return
	}
	kept := v.waiters[:0]
	newMin := int64(math.MaxInt64)
	for _, w := range v.waiters {
		if v.committed >= w.min {
			if m.inj != nil {
				m.staleChecks++
				if d := m.inj.StaleRead(m.staleChecks, w.p.id, int64(v.id)); d > 0 {
					// The waiter's local register image lags this commit:
					// it keeps spinning on the stale value for d cycles
					// before observing the release.
					m.post(m.now+d, event{kind: evRelease, v: v, w: w})
					continue
				}
			}
			m.release(v, w)
		} else {
			kept = append(kept, w)
			if w.min < newMin {
				newMin = w.min
			}
		}
	}
	tail := v.waiters[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	v.waiters = kept
	v.minWait = newMin
}

// release resumes one satisfied register waiter, charging the full blocked
// interval (including any injected stale-read lag) to WaitSync. The waiter
// has already left v.waiters (wake removed it), so its record is recycled
// here.
func (m *Machine) release(v *syncVar, w *blockedWait) {
	p := w.p
	p.waitSync += m.now - p.blockedSince
	m.addTrace(p, p.blockedSince, m.now, TraceWait, w.tag)
	m.recordSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: SyncWaitDone, Var: v.id, Value: w.min}, w.tag)
	p.ip++
	m.post(m.now, event{kind: evStep, p: p})
	m.freeWait(w)
}

// busIssue posts a register write on the synchronization bus.
func (m *Machine) busIssue(v *syncVar, val int64, procID int) {
	seq := m.busIssued
	m.busIssued++
	if m.cfg.BusCoverage {
		// A queued-but-unstarted broadcast of the same variable from the
		// same processor is covered by this newer write.
		for _, e := range m.busQueue[m.busHead:] {
			if !e.seen && e.v == v && e.pe.proc == procID {
				e.pe.val = val
				m.busSaved++
				return
			}
		}
	}
	pe := m.allocPending(procID, val)
	v.pend = append(v.pend, pe)
	e := m.allocEntry(v, pe)
	if m.inj != nil {
		if m.inj.DropBroadcast(seq, procID, int64(v.id)) {
			// The broadcast is lost: the writer keeps its local image (the
			// pend entry) but no commit ever happens, so remote waiters on
			// this value starve. The drain-time diagnosis attributes the
			// resulting stall to this drop. The pend entry must outlive the
			// run (it IS the local image); only the bus entry is recycled.
			m.freeEntry(e)
			return
		}
		e.extra = m.inj.DelayBroadcast(seq, procID, int64(v.id))
		if lb, win, of, torn := m.inj.TornUpdate(seq, procID, int64(v.id)); torn {
			e.torn = &tornSplit{lowBits: lb, window: win, ownerFirst: of}
		} else {
			e.dup = m.inj.DupBroadcast(seq, procID, int64(v.id))
		}
	}
	if m.cfg.BusLatency == 0 {
		if e.extra > 0 {
			m.post(m.now+e.extra, event{kind: evCommit, e: e})
			return
		}
		m.commit(e)
		return
	}
	m.busQueue = append(m.busQueue, e)
	if !m.busActive {
		m.busStart()
	}
}

func (m *Machine) busStart() {
	e := m.busQueue[m.busHead]
	m.busQueue[m.busHead] = nil
	m.busHead++
	if m.busHead == len(m.busQueue) {
		m.busQueue = m.busQueue[:0]
		m.busHead = 0
	}
	e.seen = true
	m.busActive = true
	m.post(m.now+m.cfg.BusLatency+e.extra, event{kind: evBusDone, e: e})
}

// commit makes a register write globally visible and wakes waiters.
func (m *Machine) commit(e *busEntry) {
	if e.torn != nil {
		m.commitTorn(e)
		return
	}
	v, val := e.v, e.pe.val
	if val > v.committed {
		v.committed = val
	}
	m.removePend(v, e.pe)
	m.wake(v)
	if e.dup {
		// The duplicate delivery lands one cycle later; monotone sync
		// variables must absorb it without effect. The value rides in the
		// event itself, so the entry can be recycled now.
		m.post(m.now+1, event{kind: evDupCommit, v: v, val: val})
	}
	m.freeEntry(e)
}

// commitTorn commits an injected torn two-field <owner,step> update: one
// half of the packed word lands now, the other after the split window. The
// writer's pend entry is kept until the second half, so only remote images
// observe the intermediate value — as on a bus whose two-word write was
// split. Step-first tears are the order paper §6 proves safe; owner-first
// tears expose <newOwner, oldStep>, which can release waiters early and may
// even move the committed value downward when the second half lands.
func (m *Machine) commitTorn(e *busEntry) {
	v := e.v
	final := e.pe.val
	mask := int64(1)<<e.torn.lowBits - 1
	old := v.committed
	var first int64
	if e.torn.ownerFirst {
		first = (final &^ mask) | (old & mask) // new owner, stale step
	} else {
		first = (old &^ mask) | (final & mask) // stale owner, new step
	}
	if first > v.committed {
		v.committed = first
	}
	m.wake(v)
	// The second half (evTornSecond) carries the intermediate word in the
	// event and finds the final word through e.pe, which stays parked until
	// the split completes.
	m.post(m.now+e.torn.window, event{kind: evTornSecond, e: e, val: first})
}

// removePend unparks a committed write. visibleTo takes a max over pend, so
// order is irrelevant: swap-remove, and nil the vacated tail slot so the
// backing array doesn't pin the recycled entry.
func (m *Machine) removePend(v *syncVar, pe *pending) {
	for i, q := range v.pend {
		if q == pe {
			last := len(v.pend) - 1
			v.pend[i] = v.pend[last]
			v.pend[last] = nil
			v.pend = v.pend[:last]
			m.freePending(pe)
			return
		}
	}
}

func (m *Machine) collectStats() Stats {
	s := Stats{Cycles: m.now, SyncOps: m.syncOps, Polls: m.polls,
		BusBroadcasts: m.busIssued - m.busSaved, BusSaved: m.busSaved}
	s.Procs = make([]ProcStats, len(m.procs))
	for i, p := range m.procs {
		idle := int64(0)
		if p.state == stateDone {
			idle = m.now - p.finishedAt
		}
		s.Procs[i] = ProcStats{Busy: p.busy, WaitSync: p.waitSync, WaitMem: p.waitMem, Idle: idle}
		s.Iterations += p.iterations
	}
	for _, mo := range m.mods {
		s.ModuleAccesses += mo.accesses
		s.ModuleQueueWait += mo.queueWait
		if mo.maxQueue > s.MaxModuleQueue {
			s.MaxModuleQueue = mo.maxQueue
		}
	}
	if m.inj != nil {
		s.Faults = m.inj.Counts()
	}
	s.Recovery = m.recovery
	return s
}

// ExecSerial executes the program's compute semantics serially in iteration
// order (sync ops skipped) and returns total compute cycles — the serial
// baseline and the oracle for serial equivalence. By convention, workload
// semantics live only on OpCompute ops.
func ExecSerial(iters int64, prog Program) int64 {
	var total int64
	for i := int64(1); i <= iters; i++ {
		for _, op := range prog(i) {
			if op.Kind == OpCompute {
				total += op.Cycles
				if op.Exec != nil {
					op.Exec()
				}
			}
		}
	}
	return total
}
