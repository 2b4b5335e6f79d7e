// Package loop provides the loop-nest intermediate representation shared by
// the dependence analysis, the synchronization code generators and the
// workloads: rectangular nests of DO loops with a straight-line or branching
// body of array statements.
//
// It also implements the iteration-space manipulations the paper uses:
// linearized process ids for coalesced nests (Example 2), inner-loop
// grouping (Example 1's G parameter) and anti-diagonal wavefront partitions
// (Fig 5.1c).
package loop

import (
	"fmt"

	"github.com/csrd-repro/datasync/internal/deps"
)

// Index describes one loop level: DO Name = Lo, Hi (step 1).
type Index struct {
	Name   string
	Lo, Hi int64
}

// Extent returns the number of iterations of the level.
func (ix Index) Extent() int64 {
	if ix.Hi < ix.Lo {
		return 0
	}
	return ix.Hi - ix.Lo + 1
}

// Node is a body element: either a statement or a conditional.
type Node interface{ isNode() }

// StmtNode wraps a single statement.
type StmtNode struct{ S *deps.Stmt }

func (StmtNode) isNode() {}

// IfNode is a two-armed conditional whose outcome depends only on the
// iteration indices (data-independent branches, as in Example 3; the
// dependence analysis treats both arms as executing, which is conservative
// and safe).
type IfNode struct {
	Name string
	Cond func(idx []int64) bool
	Then []Node
	Else []Node
}

func (IfNode) isNode() {}

// S is shorthand for wrapping a statement.
func S(s *deps.Stmt) Node { return StmtNode{S: s} }

// Nest is a rectangular loop nest with the given body.
type Nest struct {
	Indexes []Index
	Body    []Node

	// straight is the flattened body of a nest without conditionals
	// (every iteration executes it), nil otherwise.
	straight []*deps.Stmt
}

// New validates and builds a nest.
func New(indexes []Index, body []Node) (*Nest, error) {
	if len(indexes) == 0 {
		return nil, fmt.Errorf("loop: nest needs at least one index")
	}
	for _, ix := range indexes {
		if ix.Hi < ix.Lo {
			return nil, fmt.Errorf("loop: index %s has empty range [%d,%d]", ix.Name, ix.Lo, ix.Hi)
		}
	}
	n := &Nest{Indexes: indexes, Body: body}
	stmts := n.Stmts()
	if len(stmts) > 0 && !n.HasBranches() {
		n.straight = stmts[:len(stmts):len(stmts)]
	}
	for _, s := range stmts {
		for _, r := range append(append([]deps.Ref{}, s.Writes...), s.Reads...) {
			for _, ix := range r.Index {
				if ix.Arity() != len(indexes) {
					return nil, fmt.Errorf("loop: statement %s reference %s has arity %d, nest depth %d",
						s.Name, r, ix.Arity(), len(indexes))
				}
			}
		}
	}
	return n, nil
}

// MustNew is New that panics on error, for statically known nests.
func MustNew(indexes []Index, body []Node) *Nest {
	n, err := New(indexes, body)
	if err != nil {
		panic(err)
	}
	return n
}

// Depth returns the nesting depth.
func (n *Nest) Depth() int { return len(n.Indexes) }

// Extents returns the per-level iteration counts, outermost first.
func (n *Nest) Extents() []int64 {
	out := make([]int64, len(n.Indexes))
	for i, ix := range n.Indexes {
		out[i] = ix.Extent()
	}
	return out
}

// Iterations returns the total number of iterations (the number of
// processes after full coalescing). It does not allocate: IndexOf calls it
// on every dispatch for its range check.
func (n *Nest) Iterations() int64 {
	total := int64(1)
	for _, ix := range n.Indexes {
		total *= ix.Extent()
	}
	return total
}

// Stmts returns the body statements flattened in textual order, descending
// into both arms of conditionals.
func (n *Nest) Stmts() []*deps.Stmt {
	var out []*deps.Stmt
	var walk func(nodes []Node)
	walk = func(nodes []Node) {
		for _, node := range nodes {
			switch v := node.(type) {
			case StmtNode:
				out = append(out, v.S)
			case IfNode:
				walk(v.Then)
				walk(v.Else)
			}
		}
	}
	walk(n.Body)
	return out
}

// Analyze runs dependence analysis over the flattened body.
func (n *Nest) Analyze() *deps.Graph {
	return deps.Analyze(n.Stmts(), n.Depth())
}

// LinearGraph returns the dependence graph of the coalesced nest (scalar
// lpid distances), ready for Enforced().
func (n *Nest) LinearGraph() *deps.Graph {
	return n.Analyze().Linearize(n.Extents())
}

// LpidOf returns the 1-based linearized process id of an index vector, as
// in Example 2: for (i,j) over DO I=1,N / DO J=1,M it is (i-1)*M + j.
func (n *Nest) LpidOf(idx []int64) int64 {
	if len(idx) != len(n.Indexes) {
		panic(fmt.Sprintf("loop: LpidOf with %d indices on depth-%d nest", len(idx), len(n.Indexes)))
	}
	lpid := int64(0)
	for k, ix := range n.Indexes {
		off := idx[k] - ix.Lo
		if off < 0 || idx[k] > ix.Hi {
			panic(fmt.Sprintf("loop: index %s=%d out of range [%d,%d]", ix.Name, idx[k], ix.Lo, ix.Hi))
		}
		lpid = lpid*ix.Extent() + off
	}
	return lpid + 1
}

// IndexOf is the inverse of LpidOf: it decodes a 1-based lpid into an index
// vector.
func (n *Nest) IndexOf(lpid int64) []int64 {
	if lpid < 1 || lpid > n.Iterations() {
		panic(fmt.Sprintf("loop: lpid %d out of range [1,%d]", lpid, n.Iterations()))
	}
	rem := lpid - 1
	idx := make([]int64, len(n.Indexes))
	for k := len(n.Indexes) - 1; k >= 0; k-- {
		e := n.Indexes[k].Extent()
		idx[k] = n.Indexes[k].Lo + rem%e
		rem /= e
	}
	return idx
}

// FlatBody returns the executable node sequence for one iteration: body
// order with conditionals resolved against the given index vector. The
// returned statements are a subsequence of Stmts(). A body without
// conditionals has the same sequence every iteration, so New computes it
// once and FlatBody returns that shared slice; callers must not modify it.
func (n *Nest) FlatBody(idx []int64) []*deps.Stmt {
	if n.straight != nil {
		return n.straight
	}
	return appendFlat(nil, n.Body, idx)
}

func appendFlat(out []*deps.Stmt, nodes []Node, idx []int64) []*deps.Stmt {
	for _, node := range nodes {
		switch v := node.(type) {
		case StmtNode:
			out = append(out, v.S)
		case IfNode:
			if v.Cond(idx) {
				out = appendFlat(out, v.Then, idx)
			} else {
				out = appendFlat(out, v.Else, idx)
			}
		}
	}
	return out
}

// HasBranches reports whether the body contains conditionals at any depth.
func (n *Nest) HasBranches() bool {
	var found bool
	var walk func(nodes []Node)
	walk = func(nodes []Node) {
		for _, node := range nodes {
			if v, ok := node.(IfNode); ok {
				found = true
				walk(v.Then)
				walk(v.Else)
			}
		}
	}
	walk(n.Body)
	return found
}

// AntiDiagonals partitions a depth-2 iteration space into wavefronts: all
// iterations with equal i+j land in the same front (Fig 5.1c). Iterations
// within one front are mutually independent for stencils whose distance
// vectors are (1,0) and (0,1).
func (n *Nest) AntiDiagonals() [][][]int64 {
	if n.Depth() != 2 {
		panic("loop: AntiDiagonals requires a depth-2 nest")
	}
	i0, j0 := n.Indexes[0], n.Indexes[1]
	minSum, maxSum := i0.Lo+j0.Lo, i0.Hi+j0.Hi
	fronts := make([][][]int64, 0, maxSum-minSum+1)
	for s := minSum; s <= maxSum; s++ {
		var front [][]int64
		for i := i0.Lo; i <= i0.Hi; i++ {
			j := s - i
			if j >= j0.Lo && j <= j0.Hi {
				front = append(front, []int64{i, j})
			}
		}
		if len(front) > 0 {
			fronts = append(fronts, front)
		}
	}
	return fronts
}

// GroupRanges splits the range [lo,hi] into consecutive groups of size g
// (the last group may be shorter): Example 1's grouping of G inner
// iterations per synchronization point.
func GroupRanges(lo, hi, g int64) [][2]int64 {
	if g < 1 {
		panic("loop: group size must be >= 1")
	}
	var out [][2]int64
	for s := lo; s <= hi; s += g {
		e := s + g - 1
		if e > hi {
			e = hi
		}
		out = append(out, [2]int64{s, e})
	}
	return out
}
