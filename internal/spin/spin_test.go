package spin

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestPaddedLayout(t *testing.T) {
	if got := unsafe.Sizeof(Padded{}); got != CacheLine {
		t.Errorf("sizeof(Padded) = %d, want %d", got, CacheLine)
	}
	// Consecutive slice elements must sit exactly one cache line apart, so
	// no two counters can ever share a line (whatever the base alignment).
	s := make([]Padded, 4)
	d := uintptr(unsafe.Pointer(&s[1])) - uintptr(unsafe.Pointer(&s[0]))
	if d != CacheLine {
		t.Errorf("element stride = %d, want %d", d, CacheLine)
	}
}

func TestPaddedIsAtomic(t *testing.T) {
	var p Padded
	p.Store(7)
	if p.Add(3) != 10 || p.Load() != 10 {
		t.Error("Padded does not behave as atomic.Int64")
	}
}

// TestNewSkipsHotTierWhenSerial: the hot tier is computed from the host,
// not configured — skipped at GOMAXPROCS=1, hotSpins re-checks otherwise.
func TestNewSkipsHotTierWhenSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	serial := New(Config{Watchdog: time.Second})
	runtime.GOMAXPROCS(2)
	parallel := New(Config{})
	runtime.GOMAXPROCS(prev)
	if serial.hot != 0 || serial.watchdog != time.Second {
		t.Errorf("GOMAXPROCS=1: hot = %d, watchdog = %v; want 0, 1s", serial.hot, serial.watchdog)
	}
	if want := hotSpins; runtime.NumCPU() > 1 && parallel.hot != want {
		t.Errorf("GOMAXPROCS=2: hot = %d, want %d", parallel.hot, want)
	}
}

func TestBackoffTierProgression(t *testing.T) {
	b := New(Config{})
	pauses := b.hot + yieldSpins + 3
	for i := 1; i <= pauses; i++ {
		if err := b.Pause(); err != nil {
			t.Fatalf("pause %d: %v", i, err)
		}
		if i == b.hot+yieldSpins && b.sleep != 0 {
			t.Fatalf("slept within the first %d pauses", i)
		}
	}
	if b.spins != pauses {
		t.Errorf("spins = %d, want %d", b.spins, pauses)
	}
	// Three sleeping pauses double sleepMin twice.
	if b.sleep != 4*sleepMin {
		t.Errorf("sleep = %v, want %v", b.sleep, 4*sleepMin)
	}
	for b.sleep < sleepMax {
		b.Pause()
	}
	if b.Pause(); b.sleep != sleepMax {
		t.Errorf("sleep = %v, want capped at %v", b.sleep, sleepMax)
	}
}

func TestUntilImmediate(t *testing.T) {
	calls := 0
	if err := Until(New(Config{}), func() bool { calls++; return true }); calls != 1 || err != nil {
		t.Errorf("Until(true) = %v after %d checks, want nil after 1", err, calls)
	}
}

func TestUntilSpinsToCondition(t *testing.T) {
	var n atomic.Int64
	b := New(Config{})
	if err := Until(b, func() bool { return n.Add(1) >= 5 }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 5 {
		t.Errorf("condition checked %d times, want 5", n.Load())
	}
	if b.spins != 0 {
		t.Errorf("Until advanced the caller's Backoff to %d spins", b.spins)
	}
}

func TestWatchdogTrips(t *testing.T) {
	cfg := Config{Watchdog: 2 * time.Millisecond}
	err := Until(New(cfg), func() bool { return false })
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if de.Waited < cfg.Watchdog || de.Spins == 0 {
		t.Errorf("deadline error %+v inconsistent with %v watchdog", de, cfg.Watchdog)
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	// A satisfied-late wait under the default config must not error.
	var n atomic.Int64
	if err := Until(New(Config{}), func() bool { return n.Add(1) > 300 }); err != nil {
		t.Fatal(err)
	}
}
