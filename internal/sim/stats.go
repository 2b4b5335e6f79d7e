package sim

import (
	"fmt"
	"strings"

	"github.com/csrd-repro/datasync/internal/fault"
)

// ProcStats is one processor's cycle accounting. Busy covers computation,
// synchronization-op issue and scheduling overhead; WaitSync is time blocked
// in busy-waits; WaitMem is time blocked in memory-module service (queueing
// included); Idle is time after the processor ran out of work.
type ProcStats struct {
	Busy, WaitSync, WaitMem, Idle int64
}

// Stats summarizes one simulation run.
type Stats struct {
	// Cycles is the makespan: time of the last event.
	Cycles int64
	// Procs is the per-processor accounting.
	Procs []ProcStats
	// SyncOps counts synchronization operations issued (each wait counted
	// once regardless of spin duration; each write/RMW once).
	SyncOps int64
	// BusBroadcasts is the number of broadcasts that used the sync bus;
	// BusSaved the number elided by the write-coverage optimization.
	BusBroadcasts, BusSaved int64
	// ModuleAccesses counts memory-module requests (incl. busy-wait polls);
	// ModuleQueueWait is total cycles requests spent queued; MaxModuleQueue
	// the peak module backlog (the hot-spot indicator).
	ModuleAccesses, ModuleQueueWait int64
	MaxModuleQueue                  int
	// Polls counts busy-wait probes of memory-resident variables.
	Polls int64
	// Iterations is the total number of processes executed.
	Iterations int64
	// Faults counts the faults actually injected by the run's fault plan
	// (all zero when no plan is active).
	Faults fault.Counts
	// Recovery is the cycle-exact report of the ownership reclamation the
	// run performed, nil when none happened (recovery disarmed, or armed
	// but never needed).
	Recovery *RecoveryReport

	// BusFree and OwnershipPrompt are run witnesses: facts the run proved
	// about itself, which a sweep planner uses to answer neighbouring grid
	// points without simulating them (DESIGN.md "Sweep collapse"). They
	// are set only for a run that completed with no simulator fault armed;
	// false means "not proven". Neither is serialized, so the JSON of a
	// run and every digest over it are unchanged.
	//
	// BusFree: no register write reached the sync bus, the only reader of
	// BusLatency and BusCoverage, so the run is the same at every bus
	// latency.
	BusFree bool `json:"-"`
	// OwnershipPrompt: every ownership check of a folded process counter
	// (Op.OwnCheck) found its threshold already bus-committed, so no
	// iteration ever waited for, or read early, the ownership of its
	// PC[i mod X] slot. The run is then the same at any multiple of X.
	OwnershipPrompt bool `json:"-"`
}

// BusyTotal sums busy cycles over processors.
func (s Stats) BusyTotal() int64 {
	var t int64
	for _, p := range s.Procs {
		t += p.Busy
	}
	return t
}

// WaitSyncTotal sums busy-wait cycles over processors.
func (s Stats) WaitSyncTotal() int64 {
	var t int64
	for _, p := range s.Procs {
		t += p.WaitSync
	}
	return t
}

// Utilization is the fraction of processor-cycles spent busy.
func (s Stats) Utilization() float64 {
	if s.Cycles == 0 || len(s.Procs) == 0 {
		return 0
	}
	return float64(s.BusyTotal()) / (float64(s.Cycles) * float64(len(s.Procs)))
}

// Speedup relates a serial baseline to this run's makespan.
func (s Stats) Speedup(serialCycles int64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(serialCycles) / float64(s.Cycles)
}

// CheckConservation verifies the accounting identity the engine maintains:
// for every processor, Busy + WaitSync + WaitMem + Idle == Cycles. It
// returns a descriptive error on the first violation (nil when the
// accounting balances), and is used by the property tests to catch any
// interval the engine failed to attribute.
func (s Stats) CheckConservation() error {
	for i, p := range s.Procs {
		total := p.Busy + p.WaitSync + p.WaitMem + p.Idle
		if total != s.Cycles {
			return fmt.Errorf("sim: processor %d accounts %d cycles (busy %d + waitSync %d + waitMem %d + idle %d) of %d",
				i, total, p.Busy, p.WaitSync, p.WaitMem, p.Idle, s.Cycles)
		}
	}
	return nil
}

// String renders a compact single-run summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d procs=%d util=%.3f syncOps=%d busTx=%d(saved %d) modAcc=%d maxQ=%d",
		s.Cycles, len(s.Procs), s.Utilization(), s.SyncOps, s.BusBroadcasts, s.BusSaved,
		s.ModuleAccesses, s.MaxModuleQueue)
	return b.String()
}
