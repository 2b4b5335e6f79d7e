package codegen

import (
	"time"

	"github.com/csrd-repro/datasync/internal/sim"
)

// SetWaitWatchdog sets the wait watchdog of RunGoroutines to d and returns
// a function that restores the previous one.
func SetWaitWatchdog(d time.Duration) (restore func()) {
	old := waitWatchdog
	waitWatchdog = d
	return func() { waitWatchdog = old }
}

// SerialImage returns the workload's serial memory image.
func SerialImage(w *Workload) sim.Image { return w.serialImage() }

// SerialCycles returns the workload's serial cycle count.
func SerialCycles(w *Workload) int64 { return w.serialCyclesOf() }
