package barrier

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/spin"
)

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 64: 6}
	for p, want := range cases {
		if got := Log2(p); got != want {
			t.Errorf("Log2(%d) = %d, want %d", p, got, want)
		}
	}
	for _, bad := range []int{0, 3, 6, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", bad)
				}
			}()
			Log2(bad)
		}()
	}
}

// simBarrierHolds runs `rounds` barrier episodes with skewed arrival times
// and verifies the barrier property via the semantics hooks: no processor
// starts episode r+1 before every processor finished episode r.
func simBarrierHolds(t *testing.T, p int, rounds int64, build func(m *sim.Machine) func(pid int, round int64) []sim.Op) sim.Stats {
	t.Helper()
	m := sim.New(sim.Config{Processors: p, BusLatency: 1, MemLatency: 2, Modules: p, SyncOpCost: 1})
	ops := build(m)
	finished := make([]int64, p)
	var violations int
	progs := make([][]sim.Op, p)
	for pid := 0; pid < p; pid++ {
		pid := pid
		var prog []sim.Op
		for r := int64(1); r <= rounds; r++ {
			r := r
			// Skewed work before the barrier; the check runs when the
			// processor begins the episode's work: all must have finished
			// the previous round.
			prog = append(prog, sim.Compute(int64(1+(pid*7+int(r)*3)%13), sim.EffectFunc(func(int64) {
				for q := 0; q < p; q++ {
					if finished[q] < r-1 {
						violations++
					}
				}
				finished[pid] = r
			}), 0, "work"))
			prog = append(prog, ops(pid, r)...)
		}
		progs[pid] = prog
	}
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d barrier violations", violations)
	}
	return stats
}

func TestSimCounterBarrier(t *testing.T) {
	simBarrierHolds(t, 8, 5, func(m *sim.Machine) func(int, int64) []sim.Op {
		b := NewSimCounter(m, 0)
		if b.Vars() != 1 {
			t.Errorf("counter Vars = %d", b.Vars())
		}
		return func(pid int, round int64) []sim.Op { return b.Ops(round) }
	})
}

func TestSimFlagsBarrierMemory(t *testing.T) {
	simBarrierHolds(t, 8, 5, func(m *sim.Machine) func(int, int64) []sim.Op {
		b := NewSimFlags(m, sim.Memory)
		if b.Vars() != 8*3 {
			t.Errorf("flags Vars = %d, want 24", b.Vars())
		}
		return b.Ops
	})
}

func TestSimFlagsBarrierRegister(t *testing.T) {
	simBarrierHolds(t, 4, 4, func(m *sim.Machine) func(int, int64) []sim.Op {
		b := NewSimFlags(m, sim.Register)
		return b.Ops
	})
}

func TestSimPCBarrier(t *testing.T) {
	simBarrierHolds(t, 8, 5, func(m *sim.Machine) func(int, int64) []sim.Op {
		b := NewSimPCBarrier(m)
		if b.Vars() != 8 {
			t.Errorf("PC barrier Vars = %d, want 8", b.Vars())
		}
		return b.Ops
	})
}

// TestCounterHotSpot: the counter barrier's polling converges on one
// module; the butterfly's traffic is spread. The structural claim of E9.
func TestCounterHotSpot(t *testing.T) {
	p := 8
	run := func(build func(m *sim.Machine) func(int, int64) []sim.Op) sim.Stats {
		return simBarrierHolds(t, p, 3, build)
	}
	counter := run(func(m *sim.Machine) func(int, int64) []sim.Op {
		b := NewSimCounter(m, 0)
		return func(pid int, round int64) []sim.Op { return b.Ops(round) }
	})
	bfly := run(func(m *sim.Machine) func(int, int64) []sim.Op {
		return NewSimFlags(m, sim.Memory).Ops
	})
	if counter.MaxModuleQueue <= bfly.MaxModuleQueue {
		t.Errorf("hot spot not visible: counter maxQ=%d, butterfly maxQ=%d",
			counter.MaxModuleQueue, bfly.MaxModuleQueue)
	}
}

// runtimeBarrierHolds stresses a runtime barrier with goroutines.
func runtimeBarrierHolds(t *testing.T, p int, rounds int64, await func(pid int) error) {
	t.Helper()
	state := make([]atomic.Int64, p)
	var violations, stalls atomic.Int64
	var wg sync.WaitGroup
	for pid := 0; pid < p; pid++ {
		pid := pid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := int64(1); r <= rounds; r++ {
				for q := 0; q < p; q++ {
					if state[q].Load() < r-1 {
						violations.Add(1)
					}
				}
				state[pid].Store(r)
				if err := await(pid); err != nil {
					stalls.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d runtime barrier violations", v)
	}
	if s := stalls.Load(); s != 0 {
		t.Errorf("%d participants stalled (no watchdog armed)", s)
	}
}

func TestRuntimeCounter(t *testing.T) {
	b := NewCounter(8)
	runtimeBarrierHolds(t, 8, 50, b.Await)
}

func TestRuntimeFlags(t *testing.T) {
	b := NewFlags(8)
	runtimeBarrierHolds(t, 8, 50, b.Await)
}

func TestRuntimePCButterfly(t *testing.T) {
	b := NewPCButterfly(8)
	runtimeBarrierHolds(t, 8, 50, b.Await)
}

// TestRuntimeBarrierStallError: a missing participant under an armed
// watchdog turns into a *StallError naming the stuck PID and round, with a
// *spin.DeadlineError underneath — not a hang, not a panic.
func TestRuntimeBarrierStallError(t *testing.T) {
	cfg := spin.Config{HotSpins: 4, YieldSpins: 4,
		SleepMin: 50 * time.Microsecond, SleepMax: 200 * time.Microsecond,
		Watchdog: 30 * time.Millisecond}
	barriers := map[string]func(pid int) error{
		"counter":       NewCounter(2, cfg).Await,
		"flags":         NewFlags(2, cfg).Await,
		"pc-butterfly":  NewPCButterfly(2, cfg).Await,
		"dissemination": NewDissemination(3, cfg).Await,
	}
	for name, await := range barriers {
		err := await(0) // participant 1 (and 2) never arrive
		var se *StallError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *StallError", name, err)
			continue
		}
		if se.PID != 0 || se.Round != 1 {
			t.Errorf("%s: stalled PID %d round %d, want 0/1", name, se.PID, se.Round)
		}
		var de *spin.DeadlineError
		if !errors.As(err, &de) {
			t.Errorf("%s: StallError does not unwrap to *spin.DeadlineError", name)
		}
	}
}

func TestRuntimeSingleParticipant(t *testing.T) {
	// Degenerate barriers must not block or error.
	if err := NewCounter(1).Await(0); err != nil {
		t.Errorf("counter: %v", err)
	}
	if err := NewFlags(1).Await(0); err != nil {
		t.Errorf("flags: %v", err)
	}
	if err := NewPCButterfly(1).Await(0); err != nil {
		t.Errorf("PC butterfly: %v", err)
	}
}
