package core

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/spin"
)

func TestPCSetInitialState(t *testing.T) {
	s := NewPCSet(4)
	for k := 0; k < 4; k++ {
		if got := s.Load(k); got != InitialPC(k) {
			t.Errorf("PC[%d] = %v, want %v", k, got, InitialPC(k))
		}
	}
}

func TestPCSetBasicPrimitivesSingleThread(t *testing.T) {
	s := NewPCSet(2)
	// Process 1 owns PC[0] from the start.
	s.Get(1)
	s.Set(1, 1)
	if got := s.Load(0); got != (PC{1, 1}) {
		t.Errorf("after Set: %v", got)
	}
	s.Release(1)
	if got := s.Load(0); got != (PC{3, 0}) {
		t.Errorf("after Release: %v, want <3,0>", got)
	}
	// Process 3 now owns PC[0]; its Get returns immediately.
	s.Get(3)
	// Waits on released process 1 are satisfied at any step.
	s.Wait(3, 2, 5)
}

func TestPCSetMarkSkippedWhenNotOwned(t *testing.T) {
	s := NewPCSet(1)
	// Process 2 does not own PC[0] (owner is 1): Mark must be a no-op.
	s.Mark(2, 1)
	if got := s.Load(0); got != (PC{1, 0}) {
		t.Errorf("Mark by non-owner changed PC: %v", got)
	}
	// Process 1 owns it: Mark applies.
	s.Mark(1, 2)
	if got := s.Load(0); got != (PC{1, 2}) {
		t.Errorf("Mark by owner did not apply: %v", got)
	}
	// After process 1 transfers, process 2's Mark applies.
	s.Transfer(1)
	s.Mark(2, 1)
	if got := s.Load(0); got != (PC{2, 1}) {
		t.Errorf("Mark by new owner did not apply: %v", got)
	}
}

func TestWaitBeforeLoopStartReturns(t *testing.T) {
	s := NewPCSet(2)
	done := make(chan struct{})
	go func() {
		s.Wait(1, 3, 7) // source iteration -2 does not exist
		s.Wait(2, 2, 1) // source iteration 0 does not exist
		close(done)
	}()
	<-done
}

// fig21Run executes the loop of Fig 2.1 with the improved primitives, as in
// Fig 4.2b (mark/transfer variant), and returns the resulting arrays.
func fig21Run(t *testing.T, n int64, x, procs, chunk int) ([]int64, []int64) {
	t.Helper()
	a := make([]int64, n+4+1) // A[1-1 .. N+3]
	out := make([]int64, n+1) // S5 results per iteration
	f := func(i int64) int64 { return 10*i + 3 }
	r := Runner{X: x, Procs: procs, Chunk: chunk}
	r.MustRun(n, func(i int64, p *Proc) {
		a[i+3] = f(i) // S1 (source step 1)
		p.Mark(1)
		p.Wait(2, 1) // S2 sink of S1, distance 2
		t2 := a[i+1]
		p.Mark(2) // S2 is a source (anti S2->S4), step 2
		p.Wait(1, 1)
		t3 := a[i+2] // S3
		p.Mark(3)
		p.Wait(1, 2) // S4 sink of S2 (distance 1, step 2)
		p.Wait(2, 3) // S4 sink of S3 (distance 2, step 3)
		a[i] = t2 + t3
		p.Transfer()    // S4 is the last source (step 4)
		p.Wait(1, 4)    // S5 sink of S4
		out[i] = a[i-1] // S5
	})
	return a, out
}

// fig21Serial is the oracle.
func fig21Serial(n int64) ([]int64, []int64) {
	a := make([]int64, n+4+1)
	out := make([]int64, n+1)
	f := func(i int64) int64 { return 10*i + 3 }
	for i := int64(1); i <= n; i++ {
		a[i+3] = f(i)
		t2 := a[i+1]
		t3 := a[i+2]
		a[i] = t2 + t3
		out[i] = a[i-1]
	}
	return a, out
}

func TestRunnerFig21MatchesSerial(t *testing.T) {
	const n = 300
	wantA, wantOut := fig21Serial(n)
	for _, cfg := range []struct{ x, procs, chunk int }{
		{1, 2, 1}, {2, 4, 1}, {4, 4, 1}, {8, 3, 1}, {16, 8, 1},
		// Chunked in-order self-scheduling, including chunks larger than X
		// and chunks that do not divide n.
		{4, 4, 2}, {8, 4, 7}, {2, 3, 16},
	} {
		gotA, gotOut := fig21Run(t, n, cfg.x, cfg.procs, cfg.chunk)
		for i := range wantA {
			if gotA[i] != wantA[i] {
				t.Fatalf("X=%d P=%d C=%d: A[%d] = %d, want %d", cfg.x, cfg.procs, cfg.chunk, i, gotA[i], wantA[i])
			}
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("X=%d P=%d C=%d: out[%d] = %d, want %d", cfg.x, cfg.procs, cfg.chunk, i, gotOut[i], wantOut[i])
			}
		}
	}
}

func TestRunnerFinalOwnership(t *testing.T) {
	const n, x = 20, 4
	set := Runner{X: x, Procs: 3}.MustRun(n, func(i int64, p *Proc) {
		p.Transfer()
	}).Set
	// Slot k must end owned by the smallest owner > n congruent to k+1.
	for k := 0; k < x; k++ {
		got := set.Load(k).Owner
		if got <= n || Fold(got, x) != k {
			t.Errorf("slot %d final owner %d", k, got)
		}
	}
}

func TestRunnerBasicPrimitivesChain(t *testing.T) {
	// The basic Get/Set/Release protocol on a recurrence with distance 3.
	const n, x = 200, 4
	a := make([]int64, n+1)
	s := NewPCSet(x)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > n {
					return
				}
				s.Get(i)
				s.Wait(i, 3, 1) // wait_PC(3, 1): process i-3 at step 1
				if i <= 3 {
					a[i] = i
				} else {
					a[i] = a[i-3] + 10
				}
				s.Set(i, 1)
				s.Release(i)
			}
		}()
	}
	wg.Wait()
	for i := int64(1); i <= n; i++ {
		want := (i-1)/3*10 + (i-1)%3 + 1
		if i <= 3 {
			want = i
		}
		if a[i] != want {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], want)
		}
	}
}

func TestRunnerStressRandomChains(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := int64(100 + rng.Intn(200))
		x := 1 + rng.Intn(8)
		procs := 1 + rng.Intn(6)
		d1 := int64(1 + rng.Intn(4))
		d2 := int64(1 + rng.Intn(6))
		a := make([]int64, n+1)
		b := make([]int64, n+1)
		Runner{X: x, Procs: procs, Chunk: 1 + rng.Intn(4)}.MustRun(n, func(i int64, p *Proc) {
			p.Wait(d1, 1)
			if i-d1 >= 1 {
				a[i] = a[i-d1] + 1 // source step 1
			} else {
				a[i] = 1
			}
			p.Mark(1)
			p.Wait(d2, 2)
			if i-d2 >= 1 {
				b[i] = b[i-d2] + a[i] // source step 2 (last)
			} else {
				b[i] = a[i]
			}
			p.Transfer()
		})
		// Serial oracle.
		wa := make([]int64, n+1)
		wb := make([]int64, n+1)
		for i := int64(1); i <= n; i++ {
			if i-d1 >= 1 {
				wa[i] = wa[i-d1] + 1
			} else {
				wa[i] = 1
			}
			if i-d2 >= 1 {
				wb[i] = wb[i-d2] + wa[i]
			} else {
				wb[i] = wa[i]
			}
		}
		for i := int64(1); i <= n; i++ {
			if a[i] != wa[i] || b[i] != wb[i] {
				t.Fatalf("trial %d (n=%d x=%d p=%d d1=%d d2=%d): mismatch at %d: a=%d/%d b=%d/%d",
					trial, n, x, procs, d1, d2, i, a[i], wa[i], b[i], wb[i])
			}
		}
	}
}

func TestRunnerDefaults(t *testing.T) {
	var ran atomic.Int64
	res := Runner{}.MustRun(10, func(i int64, p *Proc) {
		ran.Add(1)
		p.Transfer()
	})
	if ran.Load() != 10 {
		t.Errorf("ran %d iterations, want 10", ran.Load())
	}
	if res.Set.X() != 2*runtime.GOMAXPROCS(0) {
		t.Errorf("default X = %d, want %d", res.Set.X(), 2*runtime.GOMAXPROCS(0))
	}
	if res.Stats.Chunk != 1 || res.Stats.Iterations != 10 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.Metrics != nil {
		t.Error("metrics collected without opt-in")
	}
}

func TestProcBinding(t *testing.T) {
	s := NewPCSet(2)
	p := &Proc{s: s, iter: 1}
	if p.Iter() != 1 {
		t.Errorf("Iter = %d", p.Iter())
	}
	p.Mark(1)
	if got := s.Load(0); got != (PC{1, 1}) {
		t.Errorf("bound Mark did not apply: %v", got)
	}
	p.Transfer()
	if got := s.Load(0); got != (PC{3, 0}) {
		t.Errorf("bound Transfer did not apply: %v", got)
	}
}

// TestPCSetReusedAcrossLoops: process counters need no reinitialization
// between consecutive loops — ownership just keeps advancing (the paper's
// point against data-oriented schemes' per-loop key initialization). Two
// back-to-back Doacross loops share one PCSet; the second numbers its
// iterations N+1..2N.
func TestPCSetReusedAcrossLoops(t *testing.T) {
	const n, x, workers = 100, 4, 3
	s := NewPCSet(x)
	a := make([]int64, 2*n+1)
	runLoop := func(start, end int64) {
		var next atomic.Int64
		next.Store(start - 1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > end {
						return
					}
					s.Wait(i, 1, 1)
					if i == 1 {
						a[1] = 1
					} else {
						a[i] = a[i-1] + 1
					}
					s.Mark(i, 1)
					s.Transfer(i)
				}
			}()
		}
		wg.Wait()
	}
	runLoop(1, n)     // first loop: iterations 1..N
	runLoop(n+1, 2*n) // second loop reuses the PCs with no reset
	for i := int64(1); i <= 2*n; i++ {
		if a[i] != i {
			t.Fatalf("a[%d] = %d", i, a[i])
		}
	}
	for k := 0; k < x; k++ {
		if owner := s.Load(k).Owner; owner <= 2*n {
			t.Errorf("slot %d final owner %d, want > %d", k, owner, 2*n)
		}
	}
}

func TestRunnerErrorOnMissingTransfer(t *testing.T) {
	// A body that never transfers is a protocol violation; Run must report
	// it as an error (with the partial result attached), not panic.
	res, err := Runner{X: 2, Procs: 2}.Run(6, func(i int64, p *Proc) {})
	if err == nil {
		t.Fatal("Run with missing transfers returned nil error")
	}
	if res == nil || res.Set == nil {
		t.Fatal("Run did not attach the partial result to the error")
	}
	if !strings.Contains(err.Error(), "never transferred") {
		t.Errorf("err = %v", err)
	}
}

func TestMustRunPanicsOnProtocolViolation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRun did not panic on a protocol violation")
		}
	}()
	Runner{X: 2, Procs: 2}.MustRun(4, func(i int64, p *Proc) {})
}

func TestRunnerWatchdogTurnsLivelockIntoError(t *testing.T) {
	// Every iteration waits on its own step (dist 0), which nobody ever
	// marks: a guaranteed livelock. The watchdog must abort the run with a
	// *WaitError instead of hanging forever.
	fast := spin.Config{HotSpins: 1, YieldSpins: 1,
		SleepMin: 50 * time.Microsecond, SleepMax: 200 * time.Microsecond,
		Watchdog: 20 * time.Millisecond}
	_, err := Runner{X: 2, Procs: 2, Spin: fast}.
		Run(4, func(i int64, p *Proc) {
			p.Wait(0, 1)
			p.Transfer()
		})
	var we *WaitError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WaitError", err)
	}
	if we.Op != "wait_PC" {
		t.Errorf("stalled op = %q, want wait_PC", we.Op)
	}
	var de *spin.DeadlineError
	if !errors.As(err, &de) {
		t.Errorf("WaitError does not unwrap to *spin.DeadlineError: %v", err)
	}
}

func TestRunnerMetrics(t *testing.T) {
	const n, x = 120, 4
	res := Runner{X: x, Procs: 3, Metrics: true}.MustRun(n, func(i int64, p *Proc) {
		p.Wait(1, 1)
		p.Mark(1)
		p.Transfer()
	})
	m := res.Stats.Metrics
	if m == nil {
		t.Fatal("Metrics not collected despite opt-in")
	}
	if len(m.Slots) != x {
		t.Fatalf("%d slot stats, want %d", len(m.Slots), x)
	}
	tot := m.Totals()
	// One hand-off per iteration, exactly.
	if tot.Handoffs != n {
		t.Errorf("handoffs = %d, want %d", tot.Handoffs, n)
	}
	// Each iteration issues one contended-or-not Wait (only n-1 reach a
	// real source) plus one ownership acquisition inside Transfer.
	if tot.Waits < n {
		t.Errorf("waits = %d, want >= %d", tot.Waits, n)
	}
	var histTotal uint64
	for _, c := range m.WaitHist {
		histTotal += c
	}
	if histTotal != tot.Waits {
		t.Errorf("histogram mass %d != total waits %d", histTotal, tot.Waits)
	}
	if s := res.Stats.String(); !strings.Contains(s, "handoffs") {
		t.Errorf("RunStats.String() missing metrics: %q", s)
	}
}

// TestRunnerSplitCounters drives the §6 split-field implementation through
// Runner via the CounterSet interface and checks the dataflow result.
func TestRunnerSplitCounters(t *testing.T) {
	const n = 300
	wantA, wantOut := fig21Serial(n)
	a := make([]int64, n+4+1)
	out := make([]int64, n+1)
	res := Runner{X: 4, Procs: 4, Chunk: 2, Metrics: true, NewSet: SplitCounters}.
		MustRun(n, func(i int64, p *Proc) {
			a[i+3] = 10*i + 3
			p.Mark(1)
			p.Wait(2, 1)
			t2 := a[i+1]
			p.Mark(2)
			p.Wait(1, 1)
			t3 := a[i+2]
			p.Mark(3)
			p.Wait(1, 2)
			p.Wait(2, 3)
			a[i] = t2 + t3
			p.Transfer()
			p.Wait(1, 4)
			out[i] = a[i-1]
		})
	if _, ok := res.Set.(*SplitPCSet); !ok {
		t.Fatalf("Runner used %T, want *SplitPCSet", res.Set)
	}
	for i := range wantA {
		if a[i] != wantA[i] {
			t.Fatalf("A[%d] = %d, want %d", i, a[i], wantA[i])
		}
	}
	for i := range wantOut {
		if out[i] != wantOut[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], wantOut[i])
		}
	}
	if tot := res.Stats.Metrics.Totals(); tot.Handoffs != n {
		t.Errorf("split handoffs = %d, want %d", tot.Handoffs, n)
	}
}
