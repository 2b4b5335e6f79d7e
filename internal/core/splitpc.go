package core

import "github.com/csrd-repro/datasync/internal/spin"

// SplitPCSet stores each process counter as two separately written words,
// implementing section 6's observation that the owner and step fields "need
// not be updated simultaneously" (halving the required bus width): the
// primitives are correct without any atomic read-modify-write or even an
// atomic two-field store, because
//
//   - each PC is written by exactly one process at a time, and
//   - waits release when the PC *exceeds* a value, and every torn read
//     observes either a current or an older-but-sound state.
//
// Two orderings matter — both proved necessary by the interleaving model
// checker in this package's tests:
//
//   - Transfer must store the step (0) before the owner (i+X): storing the
//     owner first would let a waiter pair the new owner with the previous
//     owner's stale step and release before the new owner completed
//     anything;
//   - symmetrically, Wait must load the owner before the step: loading the
//     step first can capture the previous owner's step, pair it with the
//     newly stored owner, and release prematurely. (The paper states reads
//     and updates may interleave freely, which is true, but the field read
//     order within one probe is constrained — a refinement the model
//     checker surfaces.)
//
// Both fields live on their own cache lines (spin.Padded), and all waits go
// through the tiered backoff of package spin, with no deadline.
type SplitPCSet struct {
	x       int64
	backoff spin.Backoff // every wait starts from a copy
	owners  []spin.Padded
	steps   []spin.Padded
}

// NewSplitPCSet builds X split-field process counters initialized to
// <slot+1, 0>.
func NewSplitPCSet(x int) *SplitPCSet {
	if x < 1 {
		panic("core: need at least one PC")
	}
	s := &SplitPCSet{x: int64(x), backoff: spin.New(spin.Config{}),
		owners: make([]spin.Padded, x), steps: make([]spin.Padded, x)}
	for k := 0; k < x; k++ {
		s.owners[k].Store(int64(k) + 1)
	}
	return s
}

// Load returns a (possibly torn, always sound) snapshot of PC[slot].
func (s *SplitPCSet) Load(slot int) PC {
	return PC{Owner: s.owners[slot].Load(), Step: s.steps[slot].Load()}
}

// satisfied probes one wait condition with the required field read order:
// owner first, then (only when needed) step.
func (s *SplitPCSet) satisfied(slot int, src, step int64) bool {
	o := s.owners[slot].Load()
	if o > src {
		return true
	}
	return o == src && s.steps[slot].Load() >= step
}

// Wait is wait_PC(dist, step): spin until the observed pair
// <owner, step> >= <iter-dist, step> lexicographically. A source before
// the first iteration does not exist; such waits return immediately.
func (s *SplitPCSet) Wait(iter, dist, step int64) {
	src := iter - dist
	if src < 1 {
		return
	}
	slot := Fold(src, int(s.x))
	// No watchdog is armed, so the wait cannot fail.
	_ = spin.Until(s.backoff, func() bool { return s.satisfied(slot, src, step) })
}

// Mark is mark_PC(step): update the step only when ownership has been
// transferred to this process.
func (s *SplitPCSet) Mark(iter, step int64) {
	slot := Fold(iter, int(s.x))
	if s.owners[slot].Load() >= iter {
		s.steps[slot].Store(step)
	}
}

// Transfer is transfer_PC(): acquire ownership, then release with the
// section-6 store order — step first, owner second.
func (s *SplitPCSet) Transfer(iter int64) {
	slot := Fold(iter, int(s.x))
	owner := &s.owners[slot]
	// No watchdog is armed, so the wait cannot fail.
	_ = spin.Until(s.backoff, func() bool { return owner.Load() >= iter })
	s.steps[slot].Store(0)  // step field first ...
	owner.Store(iter + s.x) // ... then the owner field
}
