// Package core implements the paper's contribution: the process-oriented
// data synchronization scheme of Su & Yew (ISCA 1989), section 4.
//
// Each process (loop iteration) is assigned one synchronization variable,
// the process counter (PC), holding the pair <owner, step> ordered
// lexicographically. The PC is written only by its current owner: the step
// advances as the process completes each of its source statements, and
// completing the last source statement transfers ownership to process
// owner+X, where X is the number of physical PCs the loop is folded onto
// (processes i, i+X, i+2X, ... share PC[i mod X]).
//
// The package holds the PC value and its folding onto X physical counters,
// and provides the paper's primitives in two forms:
//
//   - op builders over the machine simulator (SimPCs), which codegen emits
//     for every process-oriented program — both the basic
//     set_PC/release_PC/get_PC set of Fig 4.2a and the improved
//     load_index/mark_PC/transfer_PC set of Fig 4.3; on goroutines those
//     programs run through codegen.RunGoroutines;
//   - SplitPCSet, a standalone goroutine implementation of the split-field
//     counter whose non-atomic two-field updates section 6 argues are safe.
package core

import "fmt"

// StepBits is the width of the step field in a packed PC. A step counts
// source statements within one iteration, so 20 bits is far beyond any
// realistic loop body; owners get the remaining 43 bits.
const StepBits = 20

// MaxStep is the largest representable step.
const MaxStep = 1<<StepBits - 1

// MaxOwner is the largest representable owner (process id).
const MaxOwner = 1<<43 - 1

// PC is a process counter value: the pair <owner, step> with lexicographic
// order, exactly as defined in Fig 4.2a of the paper.
type PC struct {
	Owner int64 // process id (1-based lpid) currently owning the counter
	Step  int64 // source statements the owner has completed
}

// Pack encodes the PC into a single int64 such that integer order equals
// lexicographic <owner, step> order.
func (p PC) Pack() int64 {
	if p.Owner < 0 || p.Owner > MaxOwner {
		panic(fmt.Sprintf("core: owner %d out of range", p.Owner))
	}
	if p.Step < 0 || p.Step > MaxStep {
		panic(fmt.Sprintf("core: step %d out of range", p.Step))
	}
	return p.Owner<<StepBits | p.Step
}

// String renders the PC as "<owner,step>".
func (p PC) String() string { return fmt.Sprintf("<%d,%d>", p.Owner, p.Step) }

// Fold maps a 1-based iteration number onto its PC slot, the paper's
// "i mod X" with slots numbered 0..X-1.
func Fold(iter int64, x int) int {
	if iter < 1 {
		panic(fmt.Sprintf("core: iteration %d must be >= 1", iter))
	}
	if x < 1 {
		panic(fmt.Sprintf("core: folded onto %d physical PCs, need at least 1", x))
	}
	return int((iter - 1) % int64(x))
}

// InitialPC is the value PC[slot] starts with: owned by the first process
// folded onto the slot, at step 0 (the paper's "initially PC[i] = <i,0>").
func InitialPC(slot int) PC { return PC{Owner: int64(slot) + 1, Step: 0} }
