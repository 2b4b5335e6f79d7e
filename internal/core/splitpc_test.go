package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// ---- Exhaustive interleaving model of the split-field protocol (E11) ----
//
// The model serializes the writer-side stores of two successive owners of
// one PC slot (X=1): process 1 marks steps 1..K-1, transfers (two stores),
// then process 2 does the same. Between any two writer stores a waiter may
// load the owner field and, later, the step field (our wait_PC read order).
// The paper's claim (section 6) is that no such torn read releases a wait
// before its source process has actually completed the awaited source
// statement. The model verifies the claim for the paper's store order
// (step before owner in transfer_PC) and demonstrates that the opposite
// order is unsound — i.e. the model checker has teeth.

const (
	fieldOwner = iota
	fieldStep
)

type mEvent struct {
	isStore bool
	field   int
	val     int64
	// truth: process p has completed source statement s (recorded just
	// before the corresponding PC store — the latest sound position).
	p, s int64
}

func store(field int, val int64) mEvent { return mEvent{isStore: true, field: field, val: val} }
func truth(p, s int64) mEvent           { return mEvent{p: p, s: s} }

// writerTrace builds the serialized store/truth sequence for two owners of
// one slot with k source statements each; stepFirst selects transfer_PC's
// store order.
func writerTrace(k int64, stepFirst bool) []mEvent {
	var ev []mEvent
	emit := func(p int64, next int64) {
		for s := int64(1); s < k; s++ {
			ev = append(ev, truth(p, s), store(fieldStep, s))
		}
		ev = append(ev, truth(p, k)) // last source completed, then transfer
		if stepFirst {
			ev = append(ev, store(fieldStep, 0), store(fieldOwner, next))
		} else {
			ev = append(ev, store(fieldOwner, next), store(fieldStep, 0))
		}
	}
	emit(1, 2)
	emit(2, 3)
	return ev
}

// modelState computes owner/step values and the truth set after t events.
type modelState struct {
	owner, step []int64
	done        []map[[2]int64]bool
}

func replay(ev []mEvent) modelState {
	n := len(ev)
	st := modelState{
		owner: make([]int64, n+1),
		step:  make([]int64, n+1),
		done:  make([]map[[2]int64]bool, n+1),
	}
	st.owner[0], st.step[0] = 1, 0 // InitialPC(0) with X=1
	st.done[0] = map[[2]int64]bool{}
	for t, e := range ev {
		st.owner[t+1], st.step[t+1] = st.owner[t], st.step[t]
		m := make(map[[2]int64]bool, len(st.done[t]))
		for k := range st.done[t] {
			m[k] = true
		}
		if e.isStore {
			if e.field == fieldOwner {
				st.owner[t+1] = e.val
			} else {
				st.step[t+1] = e.val
			}
		} else {
			m[[2]int64{e.p, e.s}] = true
		}
		st.done[t+1] = m
	}
	return st
}

// violations enumerates all torn reads and returns how many release a wait
// for (src, step) before truth holds. ownerFirstRead selects the waiter's
// load order (our implementation loads owner first).
func violations(ev []mEvent, k int64, ownerFirstRead bool) int {
	st := replay(ev)
	n := len(ev)
	count := 0
	for src := int64(1); src <= 2; src++ {
		for s := int64(1); s <= k; s++ {
			for t1 := 0; t1 <= n; t1++ {
				for t2 := t1; t2 <= n; t2++ {
					var o, stp int64
					if ownerFirstRead {
						o, stp = st.owner[t1], st.step[t2]
					} else {
						stp, o = st.step[t1], st.owner[t2]
					}
					released := o > src || (o == src && stp >= s)
					if released && !st.done[t2][[2]int64{src, s}] {
						count++
					}
				}
			}
		}
	}
	return count
}

func TestSplitProtocolSafeWithPaperStoreOrder(t *testing.T) {
	for k := int64(1); k <= 4; k++ {
		ev := writerTrace(k, true)
		if v := violations(ev, k, true); v != 0 {
			t.Errorf("k=%d owner-first read: %d premature releases with step-first transfer", k, v)
		}
	}
}

func TestSplitProtocolUnsoundWithStepFirstRead(t *testing.T) {
	// A refinement the model checker surfaces beyond the paper's text: the
	// waiter's *read* order matters too. Reading the step field before the
	// owner field can pair the previous owner's stale step with the new
	// owner and release prematurely, even with the correct store order.
	// wait_PC must read owner first, then step (as SplitPCSet.Wait does).
	ev := writerTrace(2, true)
	if v := violations(ev, 2, false); v == 0 {
		t.Error("model checker found no violation for step-first reads")
	}
}

func TestSplitProtocolUnsoundWithOwnerFirstTransfer(t *testing.T) {
	// Regression guard on the model checker itself: with the stores of
	// transfer_PC swapped (owner before step), a waiter can pair the new
	// owner with the previous owner's stale step and release prematurely.
	ev := writerTrace(3, false)
	if v := violations(ev, 3, true); v == 0 {
		t.Error("model checker found no violation for the unsound store order")
	}
}

func TestSplitProtocolLiveness(t *testing.T) {
	// Every wait target is eventually satisfied at the end of the trace.
	k := int64(3)
	ev := writerTrace(k, true)
	st := replay(ev)
	n := len(ev)
	for src := int64(1); src <= 2; src++ {
		for s := int64(1); s <= k; s++ {
			o, stp := st.owner[n], st.step[n]
			if !(o > src || (o == src && stp >= s)) {
				t.Errorf("wait for <%d,%d> never satisfied", src, s)
			}
		}
	}
}

// ---- Concurrent stress of the real SplitPCSet ----

// TestSplitPCSetChainStress runs a first-order recurrence through the
// split-field primitives on real goroutines and checks the dataflow: a
// premature wait release would read a stale array element.
func TestSplitPCSetChainStress(t *testing.T) {
	const n, x, workers = 400, 4, 4
	s := NewSplitPCSet(x)
	a := make([]int64, n+1)
	var next chan int64 = make(chan int64, n)
	for i := int64(1); i <= n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s.Wait(i, 1, 1) // flow dependence distance 1 on source step 1
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
	if a[n] != n {
		t.Errorf("a[%d] = %d, want %d (dependence violated)", n, a[n], n)
	}
}

func TestSplitPCSetMarkSkippedWhenNotOwned(t *testing.T) {
	s := NewSplitPCSet(1)
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
	s := NewSplitPCSet(2)
	done := make(chan struct{})
	go func() {
		s.Wait(1, 3, 7) // source iteration -2 does not exist
		s.Wait(2, 2, 1) // source iteration 0 does not exist
		close(done)
	}()
	<-done
}

// TestSplitPCSetReusedAcrossLoops: process counters need no
// reinitialization between consecutive loops — ownership just keeps
// advancing (the paper's point against data-oriented schemes' per-loop key
// initialization). Two back-to-back Doacross loops share one SplitPCSet;
// the second numbers its iterations N+1..2N.
func TestSplitPCSetReusedAcrossLoops(t *testing.T) {
	const n, x, workers = 100, 4, 3
	s := NewSplitPCSet(x)
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
