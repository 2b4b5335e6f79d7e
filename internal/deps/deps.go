// Package deps implements data dependence analysis for loop nests with
// affine array subscripts, following section 2 of Su & Yew (ISCA 1989).
//
// The analysis computes flow (read-after-write), anti (write-after-read) and
// output (write-after-write) dependences between the statements of a loop
// body, together with their constant dependence distances. Dependences whose
// distance is not a compile-time constant are reported with Known=false; the
// synchronization schemes in this repository only enforce constant-distance
// dependences, which is exactly the class the paper treats ("constant-
// distance dependence occurs very frequently in numerical programs").
//
// The package also implements the two graph simplifications the paper uses:
//
//   - loop-independent dependences (distance zero, source textually before
//     the sink) need no synchronization because statements of one iteration
//     execute sequentially within a process (the dashed lines of Fig 2.1);
//   - a cross-iteration dependence is redundant if it is covered by a path
//     of other dependences whose distances sum to exactly the same value
//     (the paper's observation that S1->S4 is covered by S1->S3 and S3->S4).
package deps

import (
	"fmt"
	"sort"
	"strings"

	"github.com/csrd-repro/datasync/internal/expr"
)

// Access distinguishes reads from writes.
type Access int

// Access kinds.
const (
	Read Access = iota
	Write
)

func (a Access) String() string {
	if a == Write {
		return "write"
	}
	return "read"
}

// Ref is a single array reference with affine subscripts, one per dimension.
type Ref struct {
	Array  string
	Index  []expr.Affine
	Access Access
}

// String renders the reference as, e.g., "A[I+3]".
func (r Ref) String() string {
	parts := make([]string, len(r.Index))
	for i, ix := range r.Index {
		parts[i] = ix.String()
	}
	return fmt.Sprintf("%s[%s]", r.Array, strings.Join(parts, ","))
}

// Stmt is one executable statement of a loop body. Reads and Writes are the
// array references it performs; scalar/private accesses need not be listed.
// Cost is the statement's execution time in simulator cycles.
type Stmt struct {
	Name   string
	Writes []Ref
	Reads  []Ref
	Cost   int64
}

// refs returns all references of the statement with Access set correctly.
func (s *Stmt) refs() []Ref {
	out := make([]Ref, 0, len(s.Writes)+len(s.Reads))
	for _, w := range s.Writes {
		w.Access = Write
		out = append(out, w)
	}
	for _, r := range s.Reads {
		r.Access = Read
		out = append(out, r)
	}
	return out
}

// Kind is the dependence type.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // read-after-write
	Anti               // write-after-read
	Output             // write-after-write
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// UnknownReason classifies why an arc's distance could not be proven
// constant — the boundary between the exact per-dimension solver and the
// conservative fallbacks (the "data dependence problems are easy only in
// restricted settings" point of Danicic et al.). ReasonExact marks arcs
// whose distance was solved exactly (Known=true).
type UnknownReason int

// Unknown-distance reasons.
const (
	// ReasonExact: the distance is a proven compile-time constant.
	ReasonExact UnknownReason = iota
	// ReasonCoupled: one subscript dimension mixes several index variables
	// (e.g. A[I+J]); the per-dimension solver cannot pin a unique distance.
	ReasonCoupled
	// ReasonSymbolic: an index variable appearing in the subscripts is left
	// unconstrained by the pair, so a whole family of distances — bounded
	// only by the (symbolic) iteration-space extent — can realize the
	// conflict.
	ReasonSymbolic
	// ReasonGCD: the subscripts have non-uniform variable parts and the GCD
	// test could not disprove an integer solution; a dependence at varying
	// distances may or may not exist.
	ReasonGCD
)

func (r UnknownReason) String() string {
	switch r {
	case ReasonExact:
		return "exact"
	case ReasonCoupled:
		return "coupled-subscripts"
	case ReasonSymbolic:
		return "symbolic-distance"
	case ReasonGCD:
		return "gcd-inconclusive"
	}
	return fmt.Sprintf("UnknownReason(%d)", int(r))
}

// Explain renders the reason as a human-readable clause for diagnostics.
func (r UnknownReason) Explain() string {
	switch r {
	case ReasonCoupled:
		return "a subscript couples several loop indexes, so no unique distance exists"
	case ReasonSymbolic:
		return "an index variable is unconstrained by the subscript pair, leaving a family of distances"
	case ReasonGCD:
		return "the GCD test cannot disprove a dependence between the non-uniform subscripts"
	}
	return "distance is a compile-time constant"
}

// Arc is one dependence: the statement at index Src must complete (its
// effect be visible) before the statement at index Dst executes, Dist
// iterations later.
type Arc struct {
	Src, Dst int     // indices into Graph.Stmts
	Kind     Kind    // flow, anti or output
	Dist     []int64 // distance vector, one entry per nest level; valid iff Known
	Known    bool    // distance is a compile-time constant
	SrcRef   Ref     // the access in Src giving rise to the dependence
	DstRef   Ref     // the access in Dst giving rise to the dependence

	// Reason records why the distance is not constant (ReasonExact iff
	// Known): the exact-vs-conservative boundary of the dependence test,
	// surfaced so tools report *why* an arc is unenforceable instead of a
	// bare "unknown".
	Reason UnknownReason

	// LoopIndep marks a zero-distance dependence within one iteration;
	// these are enforced for free by sequential execution of the body.
	LoopIndep bool
}

// scalarDist returns the linearized distance for depth-1 graphs.
func (a Arc) scalarDist() int64 { return a.Dist[0] }

// String renders the arc as, e.g., "S1 -flow(2)-> S2"; unknown-distance
// arcs carry their classification, e.g. "S1 -flow(?coupled-subscripts)-> S2".
func (a Arc) format(stmts []*Stmt) string {
	d := "?" + a.Reason.String()
	if a.Known {
		parts := make([]string, len(a.Dist))
		for i, v := range a.Dist {
			parts[i] = fmt.Sprintf("%d", v)
		}
		d = strings.Join(parts, ",")
	}
	suffix := ""
	if a.LoopIndep {
		suffix = " [loop-independent]"
	}
	return fmt.Sprintf("%s -%s(%s)-> %s%s", stmts[a.Src].Name, a.Kind, d, stmts[a.Dst].Name, suffix)
}

// Graph is the data dependence graph of one loop nest body.
type Graph struct {
	Stmts []*Stmt
	Depth int // nest depth the subscripts range over
	Arcs  []Arc
}

// Analyze builds the dependence graph for the given body statements, whose
// subscripts range over a nest of the given depth. Statements are taken in
// body (textual) order.
func Analyze(stmts []*Stmt, depth int) *Graph {
	g := &Graph{Stmts: stmts, Depth: depth}
	refs := make([][]Ref, len(stmts))
	for i, s := range stmts {
		refs[i] = s.refs()
	}
	for ai := range stmts {
		for bi := range stmts {
			for _, r1 := range refs[ai] {
				for _, r2 := range refs[bi] {
					if r1.Access == Read && r2.Access == Read {
						continue
					}
					if r1.Array != r2.Array || len(r1.Index) != len(r2.Index) {
						continue
					}
					arc, ok := testPair(ai, bi, r1, r2, depth)
					if ok {
						g.Arcs = append(g.Arcs, arc)
					}
				}
			}
		}
	}
	sortArcs(g.Arcs)
	return g
}

// testPair decides whether the access r1 in statement index ai (at some
// iteration i) and r2 in statement bi (at iteration i+Delta) can touch the
// same element with a lexicographically non-negative Delta, making ai the
// source and bi the sink.
func testPair(ai, bi int, r1, r2 Ref, depth int) (Arc, bool) {
	kind := depKind(r1.Access, r2.Access)
	dist := make([]int64, depth)
	determined := make([]bool, depth)
	known := true
	reason := ReasonExact
	// conservative records the first (most specific) reason the distance
	// could not be pinned; later dimensions do not override it.
	conservative := func(r UnknownReason) {
		known = false
		if reason == ReasonExact {
			reason = r
		}
	}
	for d := range r1.Index {
		e1, e2 := r1.Index[d], r2.Index[d]
		// We need e1(i) == e2(i+Delta) for all i, i.e. identical variable
		// parts and sum_k coef2[k]*Delta[k] == const1-const2.
		varsEqual := true
		for k := 0; k < depth; k++ {
			if e1.Coef[k] != e2.Coef[k] {
				varsEqual = false
			}
		}
		if !varsEqual {
			// Non-uniform subscripts (e.g. A[2*I] vs A[I]): possible
			// dependence at varying distances. GCD test to rule it out.
			if gcdIndependent(e1, e2) {
				return Arc{}, false
			}
			conservative(ReasonGCD)
			continue
		}
		k, coef, ok := e2.SoleVar()
		diff := e1.Const - e2.Const
		if !ok {
			if e2.IsConst() {
				// Both sides constant in this dimension: must be equal.
				if diff != 0 {
					return Arc{}, false
				}
				continue
			}
			// More than one variable in the subscript (e.g. A[I+J]):
			// the per-dimension solver cannot pin a unique distance.
			conservative(ReasonCoupled)
			continue
		}
		if diff%coef != 0 {
			return Arc{}, false // no integer solution: independent
		}
		v := diff / coef
		if determined[k] && dist[k] != v {
			return Arc{}, false // inconsistent system: independent
		}
		dist[k], determined[k] = v, true
	}
	if known {
		// Index variables the subscript pair leaves unconstrained realize
		// the conflict at every distance along their axis — a family of
		// distances, not a constant. This includes refs that ignore an
		// index entirely (A[J] in an I/J nest, or the all-constant A[1]):
		// two instances differing only in the free index still touch the
		// same element, so assuming distance zero there would silently
		// drop real cross-iteration dependences.
		for k := 0; k < depth; k++ {
			if !determined[k] {
				conservative(ReasonSymbolic)
			}
		}
	}
	if !known {
		// Non-constant distance: instances may conflict in either
		// direction, so this orientation is reported whenever the source
		// could precede the sink — i.e. always, except the vacuous
		// same-statement same-ref pairing, which the (write, read) and
		// (read, write) orientations of the statement's own refs already
		// cover. Unknown arcs are reporting-only; the constant-distance
		// schemes refuse loops that have them.
		return Arc{Src: ai, Dst: bi, Kind: kind, Known: false, Reason: reason, SrcRef: r1, DstRef: r2}, true
	}
	switch lexSign(dist) {
	case -1:
		return Arc{}, false // reverse direction; found when testing (bi, ai)
	case 0:
		if ai >= bi {
			return Arc{}, false // same statement, or backward in body order
		}
		return Arc{Src: ai, Dst: bi, Kind: kind, Dist: dist, Known: true, LoopIndep: true, SrcRef: r1, DstRef: r2}, true
	default:
		return Arc{Src: ai, Dst: bi, Kind: kind, Dist: dist, Known: true, SrcRef: r1, DstRef: r2}, true
	}
}

func depKind(src, dst Access) Kind {
	switch {
	case src == Write && dst == Read:
		return Flow
	case src == Read && dst == Write:
		return Anti
	default:
		return Output
	}
}

// gcdIndependent applies the GCD test to one dimension pair with unequal
// variable parts: e1(i) - e2(j) == 0 must have an integer solution; if the
// gcd of all coefficients does not divide the constant difference, the
// references are independent in this dimension.
func gcdIndependent(e1, e2 expr.Affine) bool {
	var g int64
	for _, c := range e1.Coef {
		g = expr.GCD(g, c)
	}
	for _, c := range e2.Coef {
		g = expr.GCD(g, c)
	}
	diff := e1.Const - e2.Const
	if g == 0 {
		return diff != 0
	}
	return diff%g != 0
}

// lexSign returns the sign of the lexicographic comparison of v with zero.
func lexSign(v []int64) int {
	for _, x := range v {
		if x > 0 {
			return 1
		}
		if x < 0 {
			return -1
		}
	}
	return 0
}

func sortArcs(arcs []Arc) {
	sort.SliceStable(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Known != b.Known {
			return a.Known
		}
		if a.Known {
			for k := range a.Dist {
				if a.Dist[k] != b.Dist[k] {
					return a.Dist[k] < b.Dist[k]
				}
			}
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Reason < b.Reason
	})
}

// CrossArcs returns the known-distance, cross-iteration dependences — the
// ones that require explicit synchronization.
func (g *Graph) CrossArcs() []Arc {
	var out []Arc
	for _, a := range g.Arcs {
		if a.Known && !a.LoopIndep {
			out = append(out, a)
		}
	}
	return out
}

// UnknownArcs returns dependences whose distance is not constant.
func (g *Graph) UnknownArcs() []Arc {
	var out []Arc
	for _, a := range g.Arcs {
		if !a.Known {
			out = append(out, a)
		}
	}
	return out
}

// String renders the whole graph, one arc per line, in deterministic order.
func (g *Graph) String() string {
	var b strings.Builder
	for _, a := range g.Arcs {
		b.WriteString(a.format(g.Stmts))
		b.WriteByte('\n')
	}
	return b.String()
}
