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
	"math"
	"strconv"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
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

// If returns the conditional that runs then where c holds and els
// elsewhere, named by c.
func If(c Cond, then, els []Node) IfNode {
	return IfNode{Name: c.String(), Cond: c.Holds, Then: then, Else: els}
}

// Cond is an index condition, the test the front ends give a conditional:
// one loop index's source value (see expr.Var) tested for parity or
// compared against a constant. A conditional built by If takes its
// predicate and its name from one Cond, so the two cannot drift apart.
type Cond struct {
	Index string   // the tested index's name
	Var   expr.Var // the tested index's level and stride fold
	// Op is the test: "ODD", "EVEN", or a comparison against C (see
	// IsComparison).
	Op string
	C  int64
}

// IsComparison reports whether op is one of the comparisons a Cond takes.
func IsComparison(op string) bool {
	switch op {
	case "<", "<=", ">", ">=", "==", "!=":
		return true
	}
	return false
}

// Holds reports whether the condition holds at index vector idx. Parity is
// that of the mathematical residue, so it is defined for negative values
// too; over non-negative values it is Go's v%2.
func (c Cond) Holds(idx []int64) bool {
	v := c.Var.Eval(idx, nil, nil)
	switch c.Op {
	case "ODD":
		return v&1 == 1
	case "EVEN":
		return v&1 == 0
	case "<":
		return v < c.C
	case "<=":
		return v <= c.C
	case ">":
		return v > c.C
	case ">=":
		return v >= c.C
	case "==":
		return v == c.C
	case "!=":
		return v != c.C
	}
	panic("loop: unknown condition " + c.Op)
}

// String is the condition's canonical name: ODD(I), EVEN(I) or a
// comparison such as I<=5.
func (c Cond) String() string {
	if c.Op == "ODD" || c.Op == "EVEN" {
		return c.Op + "(" + c.Index + ")"
	}
	return c.Index + c.Op + strconv.FormatInt(c.C, 10)
}

// S is shorthand for wrapping a statement.
func S(s *deps.Stmt) Node { return StmtNode{S: s} }

// Nest is a rectangular loop nest with the given body. Build one with New;
// Indexes must not change afterwards, since New derives the iteration count
// and the flat body from them once.
type Nest struct {
	Indexes []Index
	Body    []Node

	// iterations is the product of the levels' extents.
	iterations int64
	// straight is the flattened body of a nest without conditionals
	// (every iteration executes it), nil otherwise.
	straight []*deps.Stmt
}

// New validates and builds a nest.
func New(indexes []Index, body []Node) (*Nest, error) {
	if len(indexes) == 0 {
		return nil, fmt.Errorf("loop: nest needs at least one index")
	}
	n := &Nest{Indexes: indexes, Body: body, iterations: 1}
	for _, ix := range indexes {
		if ix.Hi < ix.Lo {
			return nil, fmt.Errorf("loop: index %s has empty range [%d,%d]", ix.Name, ix.Lo, ix.Hi)
		}
		// Hi-Lo is exact in uint64; the extent Hi-Lo+1 must fit an int64.
		if uint64(ix.Hi)-uint64(ix.Lo) >= math.MaxInt64 {
			return nil, fmt.Errorf("loop: index %s range [%d,%d] has more than %d iterations", ix.Name, ix.Lo, ix.Hi, int64(math.MaxInt64))
		}
		e := ix.Extent()
		if n.iterations > math.MaxInt64/e {
			return nil, fmt.Errorf("loop: nest has more than %d iterations", int64(math.MaxInt64))
		}
		n.iterations *= e
	}
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
// processes after full coalescing), computed once by New: IndexInto checks
// its range on every statement execution and program build.
func (n *Nest) Iterations() int64 { return n.iterations }

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
	return n.IndexInto(make([]int64, len(n.Indexes)), lpid)
}

// IndexInto is IndexOf decoding into dst, which must have room for Depth
// indices; it returns dst[:Depth]. Code that decodes an lpid per statement
// execution reuses one buffer instead of allocating a vector each time.
func (n *Nest) IndexInto(dst []int64, lpid int64) []int64 {
	if lpid < 1 || lpid > n.iterations {
		panic(fmt.Sprintf("loop: lpid %d out of range [1,%d]", lpid, n.iterations))
	}
	rem := lpid - 1
	idx := dst[:len(n.Indexes)]
	if len(idx) == 1 {
		idx[0] = n.Indexes[0].Lo + rem // a single level needs no division
		return idx
	}
	for k := len(n.Indexes) - 1; k >= 0; k-- {
		e := n.Indexes[k].Extent()
		idx[k] = n.Indexes[k].Lo + rem%e
		rem /= e
	}
	return idx
}

// FlatBodyInto returns the executable statement sequence for one
// iteration: body order with conditionals resolved against the given index
// vector, a subsequence of Stmts(). A branchy body's sequence is built in
// dst's storage, so a caller resolving every iteration reuses one buffer.
// A body without conditionals has the same sequence every iteration, so
// New computes it once and FlatBodyInto returns that shared slice; callers
// must not modify it.
func (n *Nest) FlatBodyInto(dst []*deps.Stmt, idx []int64) []*deps.Stmt {
	if n.straight != nil {
		return n.straight
	}
	return appendFlat(dst[:0], n.Body, idx)
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
