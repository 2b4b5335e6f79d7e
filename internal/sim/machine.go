package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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

// syncVar is one entry of the machine's variable table. It carries no name:
// VarName renders one from the variable's declaration when asked, and no
// pointer, so the collector never scans the table. Memory variables (the
// many per-element keys and full/empty bits) need only a value and a
// module; the bus and waiter state of a register variable lives in its
// regState, the Machine's regs[reg].
type syncVar struct {
	committed int64
	reg       int32 // index into Machine.regs; -1 for a memory variable
	id        VarID
	module    int32
	res       Residence
}

// regState is the bus and waiter state of a register variable.
type regState struct {
	// pend names the bus entries of this variable's writes in flight (bus
	// queue and active broadcast): each is also its writer's local image of
	// the value until it commits.
	pend    []int32
	waiters []blockedWait
	// minWait is the smallest threshold among waiters (valid only when
	// waiters is non-empty). A commit below it cannot release anyone, so
	// wake can skip the waiter scan entirely — the batching invariant that
	// makes value-advancing commits O(1) per syncVar.
	minWait int64
}

// addWaiter parks w on the register state r, maintaining the minWait
// frontier.
func (r *regState) addWaiter(w blockedWait) {
	if len(r.waiters) == 0 || w.min < r.minWait {
		r.minWait = w.min
	}
	r.waiters = append(r.waiters, w)
}

// visibleTo returns the value processor p observes of v: the committed
// value, merged with p's own in-flight writes (a processor always sees its
// own writes in its local register image).
func (m *Machine) visibleTo(v *syncVar, p int) int64 {
	val := v.committed
	if v.reg < 0 {
		return val
	}
	for _, ei := range m.regs[v.reg].pend {
		if e := &m.entries[ei]; int(e.proc) == p && e.val > val {
			val = e.val
		}
	}
	return val
}

// blockedWait is processor p parked on a register wait op with threshold
// min. The op itself is p.ops[p.ip] while it is parked: its processor
// cannot move past the op, or dispatch the next iteration (which recycles
// the op storage), before the wait is released.
type blockedWait struct {
	min int64
	p   int32
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

// busEntry is processor proc's write of val to register variable v on its
// way over the synchronization bus. Until it commits it is also the
// writer's local image of the value (the variable's pend list names it), so
// the entry of a dropped broadcast is never freed.
type busEntry struct {
	val   int64
	extra int64 // injected extra bus-hold cycles (fault delay)
	split tornSplit
	v     VarID
	proc  int32
	seen  bool // started broadcasting (no longer coverable)
	torn  bool // injected torn commit, split as split says
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
	cfg Config
	mem *Mem
	// vars is the variable table, indexed by VarID. Variables are declared
	// before the run and the table never moves during it. A block
	// declaration grows it by exactly the block. regs holds the register
	// variables' bus and waiter state, in declaration order.
	vars []syncVar
	regs []regState
	// varNames names the variables by VarID.
	varNames nameTable
	// effects are the compute ops' effects by EffID-1; strs is the name
	// table of the labels' string arguments.
	effects []Effect
	strs    nameTable
	mods    []module

	// busQueue[busHead:] are the bus entries waiting for the bus. Dequeue
	// advances busHead instead of reslicing, so the backing array is reused
	// once the queue drains empty.
	busQueue  []int32
	busHead   int
	busActive bool

	events eventQ
	now    int64
	seq    int64

	// entries is the run's bus entry slab; entryFree lists the free slots.
	entries   []busEntry
	entryFree []int32

	// procs is indexed by processor id, which events carry.
	procs   []proc
	program Program
	// opsBlock is the storage of the first op buffers of the processors
	// that have not dispatched yet, opsSize ops each, sized from the first
	// iteration the program built (buildOps); opsSize is 0 until then.
	opsBlock  []Op
	opsSize   int
	nextIter  int64
	lastIter  int64
	selfSched bool
	ran       bool
	err       error

	busIssued int64
	busSaved  int64
	syncOps   int64
	polls     int64
	// ownLate records that some ownership check (Op.OwnCheck) found its
	// threshold not yet bus-committed; it refutes Stats.OwnershipPrompt.
	ownLate bool

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
	if !formatsSealed.Load() {
		formatsSealed.Store(true)
	}
	m := &Machine{cfg: cfg.normalized(), mem: NewMem()}
	if m.cfg.FaultPlan.Enabled() {
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
	v := m.declare(1, nameDecl{text: name}, Register)
	m.vars[v].committed = init
	return v
}

// NewRegVars declares a block of n register variables named by names;
// variable i starts at init(i), or at 0 when init is nil. It returns the
// first variable's id; the others follow consecutively.
func (m *Machine) NewRegVars(n int, names Namer, init func(i int) int64) VarID {
	first := m.declare(n, nameDecl{names: names}, Register)
	if init != nil {
		for i := 0; i < n; i++ {
			m.vars[int(first)+i].committed = init(i)
		}
	}
	return first
}

// NewMemVar declares a memory-resident synchronization variable in the
// given module.
func (m *Machine) NewMemVar(name string, mod int, init int64) VarID {
	if mod < 0 || mod >= m.cfg.Modules {
		panic(fmt.Sprintf("sim: module %d out of range [0,%d)", mod, m.cfg.Modules))
	}
	v := m.declare(1, nameDecl{text: name}, Memory)
	m.vars[v].module = int32(mod)
	m.vars[v].committed = init
	return v
}

// NewMemVars declares a block of n memory-resident variables named by
// names, all starting at 0. Variable i lives in module i mod Modules, the
// way interleaved memory spreads an array. It returns the first variable's
// id; the others follow consecutively.
func (m *Machine) NewMemVars(n int, names Namer) VarID {
	first := m.declare(n, nameDecl{names: names}, Memory)
	for i := 0; i < n; i++ {
		m.vars[int(first)+i].module = int32(i % m.cfg.Modules)
	}
	return first
}

// declare appends n variables of the given residence to the table, growing
// it by exactly n when it is full, and records their naming.
func (m *Machine) declare(n int, d nameDecl, res Residence) VarID {
	m.mustNotHaveRun("variables")
	first := VarID(len(m.vars))
	if n > 1 && cap(m.vars)-len(m.vars) < n {
		grown := make([]syncVar, len(m.vars), len(m.vars)+n)
		copy(grown, m.vars)
		m.vars = grown
	}
	if res == Register && n > 1 && cap(m.regs)-len(m.regs) < n {
		m.regs = slices.Grow(m.regs, n)
	}
	for i := 0; i < n; i++ {
		v := syncVar{id: first + VarID(i), reg: -1, res: res}
		if res == Register {
			v.reg = int32(len(m.regs))
			m.regs = append(m.regs, regState{})
		}
		m.vars = append(m.vars, v)
	}
	m.varNames.add(n, d)
	return first
}

// VarValue returns a variable's committed value (for post-run assertions).
func (m *Machine) VarValue(v VarID) int64 { return m.vars[v].committed }

// VarName returns the declared name of a synchronization variable,
// rendered from its declaration.
func (m *Machine) VarName(v VarID) string { return m.varNames.name(int32(v)) }

// mustNotHaveRun panics when the machine has started its run: what must be
// declared before it (variables, effects, strings) is read without a lock
// by programs built on several goroutines at once (codegen.RunGoroutines).
func (m *Machine) mustNotHaveRun(what string) {
	if m.ran {
		panic("sim: " + what + " must be declared before the run")
	}
}

// AddEffect registers effect e for the machine's compute ops and returns
// its name; a nil effect is EffID 0, no effect.
func (m *Machine) AddEffect(e Effect) EffID {
	if e == nil {
		return 0
	}
	m.mustNotHaveRun("effects")
	if m.effects == nil {
		// A loop body has a handful of statements: one allocation
		// rather than a doubling sequence.
		m.effects = make([]Effect, 0, 8)
	}
	m.effects = append(m.effects, e)
	return EffID(len(m.effects))
}

// Effect returns the effect named id, nil for EffID 0.
func (m *Machine) Effect(id EffID) Effect {
	if id == 0 {
		return nil
	}
	return m.effects[id-1]
}

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
	for i := range m.procs {
		m.post(0, event{kind: evDispatch, p: int32(i)})
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
	for i := range m.procs {
		p := &m.procs[i]
		p.ops = progs[i]
		p.iterations = 1
		m.post(0, event{kind: evStep, p: int32(i)})
	}
	return m.drain()
}

func (m *Machine) startRun() {
	if m.ran {
		panic("sim: Machine can run only once")
	}
	m.ran = true
	m.procs = make([]proc, m.cfg.Processors)
	m.mods = make([]module, m.cfg.Modules)
	for i := range m.procs {
		// chunkNext > chunkEnd marks "no chunk held".
		m.procs[i] = proc{id: i, state: stateRunning, chunkNext: 1, chunkEnd: 0}
	}
	// A processor has at most one event pending at a time, the bus one
	// more; faults and deferred releases may add a few, and the queue
	// grows past this if they do.
	m.events.reserve(2*m.cfg.Processors + 2)
}

func (m *Machine) drain() (Stats, error) {
	maxed := false
	for m.events.len() > 0 && m.err == nil {
		t, _, ev := m.events.pop()
		if t > m.cfg.MaxCycles {
			maxed = true
			m.err = fmt.Errorf("sim: exceeded MaxCycles=%d (livelock?)", m.cfg.MaxCycles)
			break
		}
		m.now = t
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
	if !slices.ContainsFunc(m.procs, func(p proc) bool { return p.state == stateBlocked }) {
		return ""
	}
	var b strings.Builder
	for i := range m.procs {
		if p := &m.procs[i]; p.state == stateBlocked {
			op := "?"
			if p.ip < len(p.ops) {
				op = m.describeOp(p.ops[p.ip])
			}
			fmt.Fprintf(&b, "  proc %d iter %d blocked since %d on %s\n", p.id, p.iter, p.blockedSince, op)
		}
	}
	return b.String()
}

// describeOp renders op for a stall report: its kind and operands, its
// tag, and the current value of the variable it names.
func (m *Machine) describeOp(op Op) string {
	var s string
	switch op.Kind {
	case OpCompute:
		s = fmt.Sprintf("compute(%d)", op.Cycles)
	case OpWrite:
		s = fmt.Sprintf("write(v%d=%d)", op.Var, op.Value)
	case OpWait:
		s = fmt.Sprintf("wait(v%d>=%d)", op.Var, op.Value)
	case OpRMW:
		s = fmt.Sprintf("rmw(v%d)", op.Var)
	case OpWriteIf:
		s = fmt.Sprintf("writeif(v%d=%d)", op.Var, op.Value)
	default:
		s = fmt.Sprintf("op(%d)", int(op.Kind))
	}
	if tag := m.Render(op.Tag); tag != "" {
		s += " " + tag
	}
	if int(op.Var) < len(m.vars) && (op.Kind == OpWait || op.Kind == OpWrite || op.Kind == OpRMW) {
		s += fmt.Sprintf(" [%s=%d]", m.VarName(op.Var), m.vars[op.Var].committed)
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
	p.ops = m.buildOps(p, it)
	p.ip = 0
	if overhead > 0 {
		p.busy += overhead
		m.post(m.now+overhead, event{kind: evStep, p: int32(p.id)})
		return
	}
	m.step(p)
}

// buildOps builds iteration it's program for processor p into p's op
// buffer: its previous iteration's ops, recycled. A processor's first
// buffer is a slice of one block for all processors, sized from the first
// iteration the run builds: that one is built into a pooled scratch buffer
// and copied to the block, so a run allocates its op storage once instead
// of growing a buffer by doubling. A later iteration longer than its
// processor's slice grows that buffer by append.
func (m *Machine) buildOps(p *proc, it int64) []Op {
	if p.ops != nil {
		return m.program(p.ops[:0], it)
	}
	if m.opsSize == 0 {
		scratch := opsScratch.Get().(*[]Op)
		ops := m.program((*scratch)[:0], it)
		m.opsSize = max(len(ops)+len(ops)>>opsSlackShift, 1)
		m.opsBlock = make([]Op, m.opsSize*m.cfg.Processors)
		buf := append(m.takeOps(), ops...)
		*scratch = ops
		opsScratch.Put(scratch)
		return buf
	}
	return m.program(m.takeOps(), it)
}

// takeOps cuts the next processor's empty first buffer from the block.
func (m *Machine) takeOps() []Op {
	buf := m.opsBlock[:0:m.opsSize]
	m.opsBlock = m.opsBlock[m.opsSize:]
	return buf
}

// opsSlackShift sizes each processor's first buffer at 1+2^-shift times
// the first iteration's length, room for iterations a little longer than
// it (branch arms, data-oriented fills with more readers).
const opsSlackShift = 1

// opsScratch holds scratch buffers for the first iteration of a run. Ops
// hold no pointer, so a pooled buffer is never scanned.
var opsScratch = sync.Pool{New: func() any { return new([]Op) }}

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
				if op.Eff != 0 {
					m.effects[op.Eff-1].Apply(op.Arg)
				}
				m.recordAccess(p, op)
				continue
			}
			m.addTrace(p, m.now, m.now+cycles, TraceCompute, &op.Tag)
			m.post(m.now+cycles, event{kind: evCompute, p: int32(p.id)})
			return

		case OpWrite:
			v := &m.vars[op.Var]
			m.syncOps++
			// Signals are recorded at issue time: the writer's knowledge at
			// the moment of the write is the happens-before point a released
			// waiter inherits, and a local waiter may observe the write
			// before its broadcast commits.
			m.recordSync(p, SyncSignal, v, op.Value, &op.Tag)
			if v.res == Register {
				m.busIssue(v, op.Value, p.id)
				p.ip++
				p.busy += m.cfg.SyncOpCost
				if m.cfg.SyncOpCost > 0 {
					m.post(m.now+m.cfg.SyncOpCost, event{kind: evStep, p: int32(p.id)})
					return
				}
				continue
			}
			// Memory write: blocks through the module queue.
			_, end := m.mods[v.module].enqueue(m.now, m.memLatency(v.module, p.id))
			m.addTrace(p, m.now, end, TraceService, &op.Tag)
			p.waitMem += end - m.now
			p.ip++
			p.state = stateBlocked
			p.blockedSince = m.now
			m.post(end, event{kind: evMemWrite, p: int32(p.id)})
			return

		case OpWait:
			v := &m.vars[op.Var]
			m.syncOps++
			if op.OwnCheck && v.committed < op.Value {
				m.ownLate = true
			}
			if m.visibleTo(v, p.id) >= op.Value {
				if m.inj != nil && v.res == Register {
					m.staleChecks++
					if d := m.inj.StaleRead(m.staleChecks, p.id, int64(v.id)); d > 0 {
						// The local register image lags the bus: the
						// processor keeps spinning on the stale value for d
						// cycles, then re-executes the wait.
						p.state = stateBlocked
						p.blockedSince = m.now
						p.waitSync += d
						m.addTrace(p, m.now, m.now+d, TraceWait, &op.Tag)
						m.post(m.now+d, event{kind: evStep, p: int32(p.id)})
						return
					}
				}
				m.recordSync(p, SyncWaitDone, v, op.Value, &op.Tag)
				p.ip++
				p.busy += m.cfg.SyncOpCost
				if m.cfg.SyncOpCost > 0 {
					m.post(m.now+m.cfg.SyncOpCost, event{kind: evStep, p: int32(p.id)})
					return
				}
				continue
			}
			p.state = stateBlocked
			p.blockedSince = m.now
			if v.res == Register {
				// Spin on the local register image: woken by commit.
				m.regs[v.reg].addWaiter(blockedWait{min: op.Value, p: int32(p.id)})
				return
			}
			// Poll through the memory module: each probe is a module access.
			m.poll(p, v)
			return

		case OpWriteIf:
			v := &m.vars[op.Var]
			m.syncOps++
			if v.res != Register {
				panic(fmt.Sprintf("sim: conditional write on memory variable %s", m.VarName(op.Var)))
			}
			if op.OwnCheck && v.committed < op.CondGE {
				m.ownLate = true
			}
			if m.visibleTo(v, p.id) >= op.CondGE {
				m.recordSync(p, SyncSignal, v, op.Value, &op.Tag)
				m.busIssue(v, op.Value, p.id)
			}
			p.ip++
			p.busy += m.cfg.SyncOpCost
			if m.cfg.SyncOpCost > 0 {
				m.post(m.now+m.cfg.SyncOpCost, event{kind: evStep, p: int32(p.id)})
				return
			}
			continue

		case OpRMW:
			v := &m.vars[op.Var]
			m.syncOps++
			if v.res != Memory {
				panic(fmt.Sprintf("sim: RMW on register variable %s", m.VarName(op.Var)))
			}
			_, end := m.mods[v.module].enqueue(m.now, m.memLatency(v.module, p.id))
			m.addTrace(p, m.now, end, TraceService, &op.Tag)
			p.waitMem += end - m.now
			p.ip++
			p.state = stateBlocked
			p.blockedSince = m.now
			m.post(end, event{kind: evRMW, p: int32(p.id)})
			return

		default:
			panic(fmt.Sprintf("sim: unknown op kind %d", op.Kind))
		}
	}
}

// memLatency returns the service time for the next access to module mod,
// including any injected slow-bank delay.
func (m *Machine) memLatency(mod int32, procID int) int64 {
	lat := m.cfg.MemLatency
	if m.inj != nil {
		lat += m.inj.ModuleDelay(m.mods[mod].accesses, int(mod), procID)
	}
	return lat
}

// poll issues one busy-wait probe of memory variable v, which p's current
// wait op names, through its module.
func (m *Machine) poll(p *proc, v *syncVar) {
	m.polls++
	_, end := m.mods[v.module].enqueue(m.now, m.memLatency(v.module, p.id))
	m.post(end, event{kind: evPoll, p: int32(p.id)})
}

// wake resumes register waiters whose condition a commit has satisfied (a
// memory variable has none: its waiters poll through the module). The
// minWait frontier makes the common case — a commit that advances the value
// but releases nobody — O(1): the waiter list is only scanned when the
// committed value actually crosses some waiter's threshold, so a same-cycle
// burst of commits touches each syncVar's waiters at most once per
// releasing commit. Survivors are filtered in place over v.waiters[:0].
func (m *Machine) wake(v *syncVar) {
	if v.reg < 0 {
		return
	}
	r := &m.regs[v.reg]
	if len(r.waiters) == 0 || v.committed < r.minWait {
		return
	}
	kept := r.waiters[:0]
	newMin := int64(math.MaxInt64)
	for _, w := range r.waiters {
		if v.committed >= w.min {
			if m.inj != nil {
				m.staleChecks++
				if d := m.inj.StaleRead(m.staleChecks, int(w.p), int64(v.id)); d > 0 {
					// The waiter's local register image lags this commit:
					// it keeps spinning on the stale value for d cycles
					// before observing the release.
					m.post(m.now+d, event{kind: evRelease, p: w.p, arg: int32(v.id), val: w.min})
					continue
				}
			}
			m.release(v, &m.procs[w.p], w.min)
		} else {
			kept = append(kept, w)
			if w.min < newMin {
				newMin = w.min
			}
		}
	}
	r.waiters = kept
	r.minWait = newMin
}

// release resumes processor p, parked on register variable v with
// threshold min, charging the full blocked interval (including any injected
// stale-read lag) to WaitSync. The wait op is still p.ops[p.ip].
func (m *Machine) release(v *syncVar, p *proc, min int64) {
	op := &p.ops[p.ip]
	p.waitSync += m.now - p.blockedSince
	m.addTrace(p, p.blockedSince, m.now, TraceWait, &op.Tag)
	m.recordSync(p, SyncWaitDone, v, min, &op.Tag)
	p.ip++
	m.post(m.now, event{kind: evStep, p: int32(p.id)})
}

// busIssue posts a register write on the synchronization bus.
func (m *Machine) busIssue(v *syncVar, val int64, procID int) {
	seq := m.busIssued
	m.busIssued++
	if m.cfg.BusCoverage {
		// A queued-but-unstarted broadcast of the same variable from the
		// same processor is covered by this newer write.
		for _, ei := range m.busQueue[m.busHead:] {
			if e := &m.entries[ei]; !e.seen && e.v == v.id && int(e.proc) == procID {
				e.val = val
				m.busSaved++
				return
			}
		}
	}
	ei := m.allocEntry(v.id, procID, val)
	r := &m.regs[v.reg]
	r.pend = append(r.pend, ei)
	e := &m.entries[ei]
	if m.inj != nil {
		if m.inj.DropBroadcast(seq, procID, int64(v.id)) {
			// The broadcast is lost: the writer keeps its local image (the
			// pend entry) but no commit ever happens, so remote waiters on
			// this value starve. The drain-time diagnosis attributes the
			// resulting stall to this drop. The entry must outlive the run:
			// it IS the local image.
			return
		}
		e.extra = m.inj.DelayBroadcast(seq, procID, int64(v.id))
		if lb, win, of, torn := m.inj.TornUpdate(seq, procID, int64(v.id)); torn {
			e.torn, e.split = true, tornSplit{lowBits: lb, window: win, ownerFirst: of}
		} else {
			e.dup = m.inj.DupBroadcast(seq, procID, int64(v.id))
		}
	}
	if m.cfg.BusLatency == 0 {
		if e.extra > 0 {
			m.post(m.now+e.extra, event{kind: evCommit, arg: ei})
			return
		}
		m.commit(ei)
		return
	}
	m.busQueue = append(m.busQueue, ei)
	if !m.busActive {
		m.busStart()
	}
}

func (m *Machine) busStart() {
	ei := m.busQueue[m.busHead]
	m.busHead++
	if m.busHead == len(m.busQueue) {
		m.busQueue = m.busQueue[:0]
		m.busHead = 0
	}
	e := &m.entries[ei]
	e.seen = true
	m.busActive = true
	m.post(m.now+m.cfg.BusLatency+e.extra, event{kind: evBusDone, arg: ei})
}

// commit makes bus entry ei's write globally visible and wakes waiters.
func (m *Machine) commit(ei int32) {
	e := &m.entries[ei]
	if e.torn {
		m.commitTorn(ei)
		return
	}
	v, val, dup := &m.vars[e.v], e.val, e.dup
	if val > v.committed {
		v.committed = val
	}
	m.removePend(v, ei)
	m.wake(v)
	if dup {
		// The duplicate delivery lands one cycle later; monotone sync
		// variables must absorb it without effect. The value rides in the
		// event itself, so the entry can be recycled now.
		m.post(m.now+1, event{kind: evDupCommit, arg: int32(v.id), val: val})
	}
	m.freeEntry(ei)
}

// commitTorn commits an injected torn two-field <owner,step> update: one
// half of the packed word lands now, the other after the split window. The
// writer's pend entry is kept until the second half, so only remote images
// observe the intermediate value — as on a bus whose two-word write was
// split. Step-first tears are the order paper §6 proves safe; owner-first
// tears expose <newOwner, oldStep>, which can release waiters early and may
// even move the committed value downward when the second half lands.
func (m *Machine) commitTorn(ei int32) {
	e := &m.entries[ei]
	v, final, split := &m.vars[e.v], e.val, e.split
	mask := int64(1)<<split.lowBits - 1
	old := v.committed
	var first int64
	if split.ownerFirst {
		first = (final &^ mask) | (old & mask) // new owner, stale step
	} else {
		first = (old &^ mask) | (final & mask) // stale owner, new step
	}
	if first > v.committed {
		v.committed = first
	}
	m.wake(v)
	// The second half (evTornSecond) carries the intermediate word in the
	// event and finds the final word in the entry, which stays parked in
	// pend until the split completes.
	m.post(m.now+split.window, event{kind: evTornSecond, arg: ei, val: first})
}

// removePend unparks committed bus entry ei from v's writes in flight.
// visibleTo takes a max over pend, so order is irrelevant: swap-remove.
func (m *Machine) removePend(v *syncVar, ei int32) {
	r := &m.regs[v.reg]
	if i := slices.Index(r.pend, ei); i >= 0 {
		last := len(r.pend) - 1
		r.pend[i] = r.pend[last]
		r.pend = r.pend[:last]
	}
}

func (m *Machine) collectStats() Stats {
	s := Stats{Cycles: m.now, SyncOps: m.syncOps, Polls: m.polls,
		BusBroadcasts: m.busIssued - m.busSaved, BusSaved: m.busSaved}
	s.Procs = make([]ProcStats, len(m.procs))
	for i := range m.procs {
		p := &m.procs[i]
		idle := int64(0)
		if p.state == stateDone {
			idle = m.now - p.finishedAt
		}
		s.Procs[i] = ProcStats{Busy: p.busy, WaitSync: p.waitSync, WaitMem: p.waitMem, Idle: idle}
		s.Iterations += p.iterations
	}
	for i := range m.mods {
		mo := &m.mods[i]
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
	// The witnesses speak only for a clean run that completed: an armed
	// simulator fault can delay, drop or reorder broadcasts behind the
	// run's back, and recovery acts only on the halts such a plan injects.
	if m.err == nil && m.inj == nil {
		s.BusFree = m.busIssued == 0
		s.OwnershipPrompt = !m.ownLate
	}
	return s
}
