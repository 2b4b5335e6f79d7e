package codegen

import (
	"fmt"
	"sort"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
)

// PipelinedOuter generalizes Example 1's asynchronous pipelining to any
// depth-2 nest: the outer loop becomes the Doacross (one process per outer
// iteration), the inner loop runs serially inside each process, and a
// process publishes its inner progress on its process counter every G
// inner iterations. A dependence with distance vector (d1, d2), d1 >= 1,
// becomes wait_PC(d1, j-d2-lo2+1) — "process i-d1 has finished inner
// iteration j-d2" — while (0, d2) dependences are enforced for free by the
// serial inner loop. Compared to full coalescing (ProcessOriented), this
// trades sync operations for granularity exactly as Fig 5.1 describes.
type PipelinedOuter struct {
	X int   // folded process counters
	G int64 // inner iterations per publication (grouping)
}

// Name implements Scheme.
func (s PipelinedOuter) Name() string {
	return fmt.Sprintf("pipeline(X=%d,G=%d)", s.X, s.G)
}

// Finalize implements Scheme.
func (PipelinedOuter) Finalize(*sim.Mem) {}

// Processes reports one process per outer iteration.
func (PipelinedOuter) Processes(w *Workload) int64 {
	return w.Nest.Indexes[0].Extent()
}

// pipelineArcs validates the nest and returns the cross-outer dependences.
func pipelineArcs(w *Workload) ([]deps.Arc, error) {
	if w.Nest.Depth() != 2 {
		return nil, fmt.Errorf("pipelined-outer needs a depth-2 nest, got depth %d", w.Nest.Depth())
	}
	g := w.Nest.Analyze()
	if unknown := g.UnknownArcs(); len(unknown) > 0 {
		return nil, fmt.Errorf("%d dependences without constant distance (%s)",
			len(unknown), describeUnknown(unknown))
	}
	var arcs []deps.Arc
	for _, a := range g.CrossArcs() {
		if a.Dist[0] < 0 || (a.Dist[0] == 0 && a.Dist[1] <= 0) {
			return nil, fmt.Errorf("arc %d->%d has non-forward distance (%d,%d)",
				a.Src, a.Dst, a.Dist[0], a.Dist[1])
		}
		if a.Dist[0] >= 1 {
			arcs = append(arcs, a) // (0,d2) arcs are serial-inner-enforced
		}
	}
	return arcs, nil
}

// Instrument implements Scheme. The returned program is indexed by the
// outer iteration's 1-based rank (use with Processes, as Run does).
func (s PipelinedOuter) Instrument(m *sim.Machine, w *Workload) (sim.Program, Footprint, error) {
	if s.X < 1 {
		return nil, Footprint{}, fmt.Errorf("codegen: need at least one process counter, got X=%d", s.X)
	}
	arcs, err := pipelineArcs(w)
	if err != nil {
		return nil, Footprint{}, fmt.Errorf("codegen: %w", err)
	}
	g := s.G
	if g < 1 {
		g = 1
	}
	pcs := core.NewSimPCs(m, s.X)
	outer, inner := w.Nest.Indexes[0], w.Nest.Indexes[1]
	foot := Footprint{SyncVars: s.X, InitOps: int64(s.X), StorageWords: int64(s.X)}
	// Distinct outer distances, ascending, for deterministic wait order.
	var dists []int64
	seen := map[int64]bool{}
	for _, a := range arcs {
		if !seen[a.Dist[0]] {
			seen[a.Dist[0]] = true
			dists = append(dists, a.Dist[0])
		}
	}
	sort.Slice(dists, func(x, y int) bool { return dists[x] < dists[y] })
	// distOf[k] is arc k's position in dists.
	distOf := make([]int, len(arcs))
	for k, a := range arcs {
		distOf[k] = sort.Search(len(dists), func(x int) bool { return dists[x] >= a.Dist[0] })
	}
	r := w.bindMachine(m)
	need := make([]int64, len(dists)) // per-j scratch, cleared on entry
	var body []int

	prog := func(ops []sim.Op, lpid int64) []sim.Op {
		i := outer.Lo + lpid - 1
		sinceMark := int64(0)
		idx := r.progIdx
		for j := inner.Lo; j <= inner.Hi; j++ {
			idx[0], idx[1] = i, j
			// One wait per distinct outer distance: the maximum inner
			// progress any arc requires of process lpid-d1 at this j
			// (progress is at least 1, so 0 means no arc needs a wait).
			clear(need)
			for k := range arcs {
				d1, d2 := arcs[k].Dist[0], arcs[k].Dist[1]
				if lpid-d1 < 1 {
					continue // source process before the loop start
				}
				srcJ := j - d2
				if srcJ < inner.Lo || srcJ > inner.Hi {
					continue // source instance outside the space
				}
				need[distOf[k]] = max(need[distOf[k]], srcJ-inner.Lo+1)
			}
			for k, d1 := range dists {
				if need[k] > 0 {
					ops = pcs.WaitPC(ops, lpid, d1, need[k])
				}
			}
			// Statement effects take the instance's coalesced iteration
			// number, not the process number.
			iter := w.Nest.LpidOf(idx)
			body = r.info.flat(body, idx)
			for _, pos := range body {
				ops = r.appendStmt(ops, pos, iter, idx)
			}
			sinceMark++
			if sinceMark == g && j < inner.Hi {
				ops = pcs.MarkPC(ops, lpid, j-inner.Lo+1)
				sinceMark = 0
			}
		}
		return pcs.TransferPCOps(ops, lpid)
	}
	return prog, foot, nil
}
