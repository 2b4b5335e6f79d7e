// Package spin provides the shared waiting strategy of the runtime layer:
// tiered adaptive backoff (hot spin → cooperative yield → parked sleep with
// capped exponential backoff), an optional livelock watchdog, and
// cache-line-padded atomic counters.
//
// The paper's section 6 rejects context switching for medium-grain wait_PC
// spins; the tiers keep the common short wait on the cheap hot path (a bare
// re-check of the condition) while long waits progressively yield the
// processor, so the scheme stays live on a single-core host without turning
// every stalled waiter into a scheduler hot spot. SynCron-style hierarchical
// backoff is what makes counter-based synchronization scale past a handful
// of cores; this package is the software rendition of that idea.
package spin

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// CacheLine is the assumed coherence granularity in bytes.
const CacheLine = 64

// Padded is an atomic.Int64 alone on its cache line: a []Padded places
// consecutive counters exactly CacheLine bytes apart, so waiters spinning on
// adjacent slots never invalidate each other's lines (no false sharing).
type Padded struct {
	atomic.Int64
	_ [CacheLine - 8]byte
}

// The backoff tiers: hotSpins back-to-back re-checks of the caller's
// condition, then yieldSpins runtime.Gosched calls, then parked sleeps
// doubling from sleepMin up to the sleepMax cap.
const (
	hotSpins   = 64
	yieldSpins = 128
	sleepMin   = 2 * time.Microsecond
	sleepMax   = 512 * time.Microsecond
)

// Config configures a wait. The zero value waits without a deadline.
type Config struct {
	// Watchdog, when positive, bounds one wait: a waiter still unsatisfied
	// this long after entering the sleeping tier gets a *DeadlineError
	// from Pause instead of hanging silently.
	Watchdog time.Duration
}

// DeadlineError reports a wait that exceeded the watchdog deadline.
type DeadlineError struct {
	Waited time.Duration // time since the wait entered the sleeping tier
	Spins  int           // total pauses taken
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("spin: wait exceeded watchdog deadline after %v (%d spins)", e.Waited, e.Spins)
}

// Backoff is the per-wait tier state. It is not safe for concurrent use.
// New reads GOMAXPROCS, which takes a scheduler lock, so a long-lived
// waiter (a barrier, a counter set, a goroutine run) builds one Backoff
// and starts each wait from a copy of it.
type Backoff struct {
	watchdog time.Duration
	hot      int // hot re-checks before yielding: hotSpins, or 0 on a serial host
	spins    int
	sleep    time.Duration
	start    time.Time
}

// New returns a Backoff at the start of its first tier. On an effectively
// serial host (one CPU, or GOMAXPROCS=1) the hot tier is skipped: nothing
// can change the awaited condition while this goroutine monopolizes the
// processor, so bare re-checks only delay the writer's turn to run.
func New(cfg Config) Backoff {
	hot := hotSpins
	if runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1 {
		hot = 0
	}
	return Backoff{watchdog: cfg.Watchdog, hot: hot}
}

// Pause takes one backoff step in the current tier and advances the tier
// state. It returns a *DeadlineError once the watchdog deadline has passed,
// nil otherwise.
func (b *Backoff) Pause() error {
	b.spins++
	switch {
	case b.spins <= b.hot:
		// Tier 1: the caller's condition re-check is the spin.
	case b.spins <= b.hot+yieldSpins:
		runtime.Gosched()
	default:
		if b.sleep == 0 {
			b.sleep = sleepMin
			b.start = time.Now()
		} else if b.sleep < sleepMax {
			b.sleep = min(2*b.sleep, sleepMax)
		}
		time.Sleep(b.sleep)
		if w := b.watchdog; w > 0 {
			if waited := time.Since(b.start); waited > w {
				return &DeadlineError{Waited: waited, Spins: b.spins}
			}
		}
	}
	return nil
}

// Until spins cond to true from b (a copy: the caller's Backoff is left
// as it was). It returns the *DeadlineError of a watchdog deadline that
// passes first.
func Until(b Backoff, cond func() bool) error {
	for !cond() {
		if err := b.Pause(); err != nil {
			return err
		}
	}
	return nil
}
