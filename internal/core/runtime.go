package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/csrd-repro/datasync/internal/spin"
)

// PCSet is a real concurrent implementation of a folded set of process
// counters, each packed into one atomic word on its own cache line (waiters
// on adjacent slots share nothing, so a neighbor's mark never invalidates a
// spinning reader's line). It implements both the basic primitives of
// Fig 4.2a (Get/Set/Release) and the improved primitives of Fig 4.3
// (Mark/Transfer); a Proc plays the role of load_index.
//
// All waits busy-wait through the tiered backoff of package spin, per the
// paper's section 6 observation that context switching is too expensive for
// medium-grain synchronization: short waits stay on the hot re-check path,
// long ones yield and eventually park briefly (so the scheme remains live on
// a single-core host). An optional watchdog turns a livelocked wait into a
// diagnosable *WaitError panic instead of a silent hang.
type PCSet struct {
	x   int64
	cfg spin.Config
	m   *Metrics
	pcs []spin.Padded
}

// NewPCSet builds X process counters initialized to <slot+1, 0> with the
// default waiting strategy and no metrics.
func NewPCSet(x int) *PCSet { return NewPCSetOpts(x, Options{}) }

// NewPCSetOpts builds X process counters with explicit spin tiers and
// optional metrics collection.
func NewPCSetOpts(x int, o Options) *PCSet {
	if x < 1 {
		panic("core: need at least one PC")
	}
	s := &PCSet{x: int64(x), cfg: o.Spin.Normalized(), m: o.Metrics, pcs: make([]spin.Padded, x)}
	for k := 0; k < x; k++ {
		s.pcs[k].Store(InitialPC(k).Pack())
	}
	return s
}

// X returns the number of physical PCs.
func (s *PCSet) X() int { return int(s.x) }

// Load returns the current value of PC[slot].
func (s *PCSet) Load(slot int) PC { return Unpack(s.pcs[slot].Load()) }

// WaitError is the panic value raised when a wait outlives the configured
// watchdog deadline (spin.Config.Watchdog): a livelock diagnosis instead of
// a silent hang. Runner.Run converts it into an ordinary error return.
type WaitError struct {
	Op   string // which primitive stalled: "wait_PC", "get_PC", "transfer_PC"
	Iter int64  // the iteration issuing the wait
	Slot int    // the PC slot spun on
	Last PC     // last observed value of the slot
	Want PC     // the value the wait needed to reach
	Err  *spin.DeadlineError
}

func (e *WaitError) Error() string {
	return fmt.Sprintf("core: %s i=%d livelocked on slot %d: have %v, want >= %v (%v)",
		e.Op, e.Iter, e.Slot, e.Last, e.Want, e.Err)
}

// Unwrap exposes the underlying deadline error to errors.As/Is.
func (e *WaitError) Unwrap() error { return e.Err }

// waitSlot spins PC[slot] up to the packed value min under the backoff
// tiers, recording the wait in the metrics and panicking with a *WaitError
// on watchdog expiry. The primitives check the satisfied-and-unmetered case
// themselves before calling (they are interface-call targets, so an extra
// frame here is pure overhead on the uncontended path).
func (s *PCSet) waitSlot(op string, iter int64, slot int, min int64) {
	v := &s.pcs[slot]
	if v.Load() >= min {
		s.m.noteWait(slot, 0)
		return
	}
	b := spin.New(s.cfg)
	for v.Load() < min {
		if err := b.Pause(); err != nil {
			panic(&WaitError{Op: op, Iter: iter, Slot: slot,
				Last: Unpack(v.Load()), Want: Unpack(min), Err: err.(*spin.DeadlineError)})
		}
	}
	s.m.noteWait(slot, b.Spins())
}

// Wait is wait_PC(dist, step) for process iter: spin until process
// iter-dist has completed its step-th source statement. A source before the
// first iteration does not exist; such waits return immediately.
func (s *PCSet) Wait(iter, dist, step int64) {
	src := iter - dist
	if src < 1 {
		return
	}
	slot := Fold(src, int(s.x))
	min := PC{Owner: src, Step: step}.Pack()
	if s.m == nil && s.pcs[slot].Load() >= min {
		return
	}
	s.waitSlot("wait_PC", iter, slot, min)
}

// Get is get_PC(): wait for ownership (wait_PC(0,0)).
func (s *PCSet) Get(iter int64) {
	slot := Fold(iter, int(s.x))
	min := PC{Owner: iter, Step: 0}.Pack()
	if s.m == nil && s.pcs[slot].Load() >= min {
		return
	}
	s.waitSlot("get_PC", iter, slot, min)
}

// Set is set_PC(step): requires ownership (call Get first).
func (s *PCSet) Set(iter, step int64) {
	s.pcs[Fold(iter, int(s.x))].Store(PC{Owner: iter, Step: step}.Pack())
}

// Release is release_PC(): pass ownership to process iter+X.
func (s *PCSet) Release(iter int64) {
	slot := Fold(iter, int(s.x))
	s.pcs[slot].Store(PC{Owner: iter + s.x, Step: 0}.Pack())
	s.m.noteHandoff(slot)
}

// Mark is the improved mark_PC(step): update only when ownership has
// already been transferred to this process; otherwise proceed without
// waiting. Safe without an owned flag: once the PC shows owner >= iter it
// can only be advanced further by this process (or its successors after
// this process transfers), so re-checking is equivalent to caching.
func (s *PCSet) Mark(iter, step int64) {
	v := &s.pcs[Fold(iter, int(s.x))]
	if v.Load() >= (PC{Owner: iter, Step: 0}).Pack() {
		v.Store(PC{Owner: iter, Step: step}.Pack())
	}
}

// Transfer is transfer_PC(): acquire ownership if necessary, then pass the
// PC to the next owner. Must be called exactly once per iteration, after
// its last source statement.
func (s *PCSet) Transfer(iter int64) {
	slot := Fold(iter, int(s.x))
	min := PC{Owner: iter, Step: 0}.Pack()
	if s.m != nil || s.pcs[slot].Load() < min {
		s.waitSlot("transfer_PC", iter, slot, min)
	}
	// release_PC inlined to reuse slot (Fold is a non-trivial call).
	s.pcs[slot].Store(PC{Owner: iter + s.x, Step: 0}.Pack())
	s.m.noteHandoff(slot)
}

// Proc is a counter set bound to one iteration (the result of load_index):
// the primitives without the iteration argument. Runner.Run hands one to
// each iteration of the body.
type Proc struct {
	s    CounterSet
	iter int64
}

// Iter returns the bound iteration (lpid).
func (p *Proc) Iter() int64 { return p.iter }

// Wait is wait_PC(dist, step).
func (p *Proc) Wait(dist, step int64) { p.s.Wait(p.iter, dist, step) }

// Mark is mark_PC(step).
func (p *Proc) Mark(step int64) { p.s.Mark(p.iter, step) }

// Transfer is transfer_PC().
func (p *Proc) Transfer() { p.s.Transfer(p.iter) }

// Runner executes a Doacross loop on real goroutines with chunked in-order
// self-scheduling, the dynamic scheduling regime the paper assumes
// (sim.DispatchChunked is the simulator-side counterpart). Body receives
// the 1-based iteration number and its bound process counter; it must call
// Transfer exactly once (directly or via a wrapper).
type Runner struct {
	// X is the number of physical process counters (defaults to 2*Procs,
	// the paper's "small multiple of the number of processors").
	X int
	// Procs is the number of worker goroutines (defaults to GOMAXPROCS).
	Procs int
	// Chunk is how many consecutive iterations a worker claims per
	// dispatch (defaults to 1). Chunks are handed out in order and
	// executed in order within a worker, so all backward dependences stay
	// deadlock-free while dispatch overhead is amortized.
	Chunk int
	// Spin tunes the backoff tiers of every wait (zero = spin.Defaults).
	// A positive Spin.Watchdog bounds any single wait: a tripped watchdog
	// aborts the run with a *WaitError.
	Spin spin.Config
	// Metrics enables the per-slot instrumentation, surfaced in
	// RunStats.Metrics.
	Metrics bool
	// NewSet overrides the counter-set implementation; the default builds
	// the packed PCSet. Use SplitCounters for the §6 split-field variant.
	NewSet func(x int, o Options) CounterSet
}

// SplitCounters is a Runner.NewSet factory selecting the split-field
// SplitPCSet representation.
func SplitCounters(x int, o Options) CounterSet { return NewSplitPCSetOpts(x, o) }

// RunStats describes one Run: its configuration, wall-clock time and, when
// Runner.Metrics is set, the waiter instrumentation.
type RunStats struct {
	Iterations int64
	Procs      int
	X          int
	Chunk      int
	Elapsed    time.Duration
	Metrics    *MetricsSnapshot // nil unless Runner.Metrics
}

// String renders a one-line summary plus the metrics tables when collected.
func (s RunStats) String() string {
	out := fmt.Sprintf("n=%d procs=%d X=%d chunk=%d elapsed=%v",
		s.Iterations, s.Procs, s.X, s.Chunk, s.Elapsed)
	if s.Metrics != nil {
		out += "\n" + s.Metrics.String()
	}
	return out
}

// RunResult is what a completed (or aborted) Run hands back: the counter
// set for final-state inspection and the run statistics.
type RunResult struct {
	Set   CounterSet
	Stats RunStats
}

// Run executes iterations 1..n of body and returns the counter set used
// plus run statistics. It returns an error — with the partial result for
// inspection — when a watchdog-equipped wait livelocks (the first
// *WaitError, naming the op, iteration, slot and <owner,step>) or when
// some iteration never transferred its PC (a protocol violation in body).
func (r Runner) Run(n int64, body func(it int64, p *Proc)) (*RunResult, error) {
	procs := r.Procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	x := r.X
	if x <= 0 {
		x = 2 * procs
	}
	chunk := int64(r.Chunk)
	if chunk < 1 {
		chunk = 1
	}
	var m *Metrics
	if r.Metrics {
		m = NewMetrics(x)
	}
	mk := r.NewSet
	if mk == nil {
		mk = func(x int, o Options) CounterSet { return NewPCSetOpts(x, o) }
	}
	set := mk(x, Options{Spin: r.Spin, Metrics: m})

	start := time.Now()
	var next atomic.Int64
	var trip atomic.Pointer[WaitError]
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				// A watchdog trip abandons this worker's remaining
				// iterations; every other watchdog-equipped waiter then
				// trips in turn, so Run terminates and reports the first.
				if e := recover(); e != nil {
					if we, ok := e.(*WaitError); ok {
						trip.CompareAndSwap(nil, we)
						return
					}
					panic(e)
				}
			}()
			for {
				hi := next.Add(chunk)
				lo := hi - chunk + 1
				if lo > n {
					return
				}
				if hi > n {
					hi = n
				}
				for it := lo; it <= hi; it++ {
					body(it, &Proc{s: set, iter: it})
				}
			}
		}()
	}
	wg.Wait()
	res := &RunResult{Set: set, Stats: RunStats{
		Iterations: n, Procs: procs, X: x, Chunk: int(chunk),
		Elapsed: time.Since(start), Metrics: m.Snapshot(),
	}}
	if we := trip.Load(); we != nil {
		return res, we
	}
	// Every iteration must have transferred its PC exactly once; the final
	// owners are n+1 .. n+x in some slot order.
	if err := checkTransfers(set, n, x); err != nil {
		return res, err
	}
	return res, nil
}

// ProtocolViolationError reports a run that terminated with some iteration
// still owning its PC: body broke the transfer_PC contract (never called
// Transfer, or not exactly once). Distinct from a stall — the run finished,
// but its final counter state is wrong — so services and CLIs can classify
// it as a caller bug rather than a livelock.
type ProtocolViolationError struct {
	// Iter is the iteration that still owns the slot.
	Iter int64 `json:"iter"`
	// Slot is the physical PC slot left behind.
	Slot int `json:"slot"`
	// Final is the slot's final <owner,step>.
	Final PC `json:"final"`
}

func (e *ProtocolViolationError) Error() string {
	return fmt.Sprintf("core: iteration %d never transferred its PC (slot %d ended at %v)",
		e.Iter, e.Slot, e.Final)
}

// checkTransfers verifies the post-run invariant that every slot's final
// owner is past n (each of the n iterations transferred exactly once).
func checkTransfers(set CounterSet, n int64, x int) error {
	for k := 0; k < x; k++ {
		if pc := set.Load(k); pc.Owner <= n {
			return &ProtocolViolationError{Iter: pc.Owner, Slot: k, Final: pc}
		}
	}
	return nil
}

// MustRun is Run for callers that treat a protocol violation as fatal: it
// panics on error instead of returning it.
func (r Runner) MustRun(n int64, body func(it int64, p *Proc)) *RunResult {
	res, err := r.Run(n, body)
	if err != nil {
		panic(err)
	}
	return res
}
