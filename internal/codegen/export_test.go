package codegen

import "time"

// SetWaitWatchdog sets the wait watchdog of RunGoroutines to d and returns
// a function that restores the previous one.
func SetWaitWatchdog(d time.Duration) (restore func()) {
	old := waitWatchdog
	waitWatchdog = d
	return func() { waitWatchdog = old }
}
