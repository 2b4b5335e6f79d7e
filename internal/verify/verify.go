// Package verify checks generated synchronization programs against the loop
// nest's dependence set — the correctness side of the paper's schemes.
//
// The static half (Static) reads the sim.Ops a scheme emits
// (codegen.ExtractSyncProgram) and constructs the happens-before relation
// its waits and signals induce over the iteration space, without running
// the machine. On that relation it checks that
//
//   - every cross-iteration dependence arc is ordered (an uncovered arc is
//     reported as a race with a concrete iteration-pair witness),
//   - loop-independent arcs keep body order within each iteration,
//   - no wait-for cycle exists (a cycle is reported as a deadlock with the
//     cycle as certificate),
//   - waits whose release is already implied transitively are flagged as
//     advisory notes, validating covering elimination.
//
// The construction is sound relative to per-variable signal discipline,
// which is itself checked rather than assumed: monotone single-chain values
// for written variables (every consecutive pair of signal values must be
// happens-before ordered, or guarded — the improved mark_PC fires only once
// ownership arrived), and exact counting for atomically incremented keys.
// Violations surface as hard findings instead of silently unsound edges.
//
// The dynamic half (Dynamic) replays a machine synchronization trace
// (sim.EnableSyncTrace) with vector clocks — iterations as threads,
// synchronization variables as the release/acquire points — and flags
// conflicting shared-memory accesses unordered by happens-before, in the
// FastTrack style of one last-write epoch plus a read map per location.
package verify

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Class categorizes a finding.
type Class int

// Finding classes. All are hard (verification failures) except
// RedundantWait, which is advisory.
const (
	// Race is a dependence arc instance not ordered by the synchronization.
	Race Class = iota
	// Deadlock is a wait-for cycle in the happens-before graph.
	Deadlock
	// UnreleasableWait is a wait no signal in the program can satisfy.
	UnreleasableWait
	// UnsoundRelease is a conditional release (mark_PC) not backed by an
	// ordered unconditional signal: if the conditional write does not fire,
	// nothing proves the waiter still sees the source's effects.
	UnsoundRelease
	// UnserializedSignals means a variable's signal values do not form a
	// happens-before chain, so wait release order is not well defined.
	UnserializedSignals
	// AmbiguousSignals means two iterations signal the same value on one
	// variable, so the releaser of a wait is not statically determined.
	AmbiguousSignals
	// Unanalyzable marks programs outside the static model: opaque atomic
	// ops, mixed write/increment variables, unknown-distance arcs.
	Unanalyzable
	// RedundantWait (advisory) marks a wait site all of whose instances are
	// already implied transitively by earlier waits.
	RedundantWait
)

func (c Class) String() string {
	switch c {
	case Race:
		return "race"
	case Deadlock:
		return "deadlock"
	case UnreleasableWait:
		return "unreleasable-wait"
	case UnsoundRelease:
		return "unsound-release"
	case UnserializedSignals:
		return "unserialized-signals"
	case AmbiguousSignals:
		return "ambiguous-signals"
	case Unanalyzable:
		return "unanalyzable"
	case RedundantWait:
		return "redundant-wait"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// MarshalJSON renders the class as its name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// Finding is one verification result.
type Finding struct {
	Class   Class  `json:"class"`
	Summary string `json:"summary"`
	Detail  string `json:"detail,omitempty"`

	// Race witnesses: the arc, one concrete unordered iteration pair
	// (index vectors), and how many instance pairs failed in total.
	Arc     string  `json:"arc,omitempty"`
	SrcIter []int64 `json:"src_iter,omitempty"`
	DstIter []int64 `json:"dst_iter,omitempty"`
	Pairs   int64   `json:"pairs,omitempty"`

	Var   string   `json:"var,omitempty"`   // synchronization variable involved
	Site  string   `json:"site,omitempty"`  // normalized wait site (redundancy)
	Cycle []string `json:"cycle,omitempty"` // deadlock certificate
}

func (f Finding) String() string {
	s := fmt.Sprintf("[%s] %s", f.Class, f.Summary)
	if f.Detail != "" {
		s += "\n    " + strings.ReplaceAll(f.Detail, "\n", "\n    ")
	}
	if len(f.Cycle) > 0 {
		s += "\n    cycle: " + strings.Join(f.Cycle, " -> ")
	}
	return s
}

// Report is the result of one static verification run.
type Report struct {
	Workload   string `json:"workload"`
	Scheme     string `json:"scheme"`
	Iterations int64  `json:"iterations"` // full iteration space
	Analyzed   int64  `json:"analyzed"`   // iterations actually modeled
	Truncated  bool   `json:"truncated,omitempty"`

	Nodes        int   `json:"nodes"`
	Waits        int   `json:"waits"`
	Signals      int   `json:"signals"`
	Arcs         int   `json:"arcs"`
	PairsChecked int64 `json:"pairs_checked"`

	Findings []Finding `json:"findings"` // hard findings
	Notes    []Finding `json:"notes"`    // advisory findings
}

// OK reports whether verification passed (no hard findings).
func (r *Report) OK() bool { return len(r.Findings) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s under %s: %d/%d iterations, %d nodes, %d waits, %d signals\n",
		r.Workload, r.Scheme, r.Analyzed, r.Iterations, r.Nodes, r.Waits, r.Signals)
	fmt.Fprintf(&b, "dependence arcs: %d (%d instance pairs checked)\n", r.Arcs, r.PairsChecked)
	if r.Truncated {
		fmt.Fprintf(&b, "note: analysis window truncated to %d iterations\n", r.Analyzed)
	}
	if r.OK() {
		b.WriteString("PASS: every dependence arc is ordered by happens-before\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d finding(s)\n", len(r.Findings))
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	for _, f := range r.Notes {
		fmt.Fprintf(&b, "  note %s\n", f)
	}
	return b.String()
}

// Options tunes static verification.
type Options struct {
	// MaxIters caps the number of iterations materialized (0 = 512). Every
	// realizable arc instance inside the window is checked; if the window
	// truncates the iteration space the report says so.
	MaxIters int64
}

func (o Options) maxIters() int64 {
	if o.MaxIters > 0 {
		return o.MaxIters
	}
	return 512
}
