// Package workloads provides the paper's example loops as executable
// workloads: the Fig 2.1 five-statement loop, the multiply-nested loop of
// Example 2, a branchy loop in the shape of Example 3, first-order
// recurrences, and a generator of random constant-distance loops for
// property testing. The relaxation pipeline of Example 1 and the FFT of
// Example 5 have their own builders (relax.go, fft.go) because their
// process structure — a Doacross loop enclosing a serial loop, and
// phase-structured processor-bound processes — is not a flat Doacross body.
package workloads

import (
	"fmt"
	"math/rand"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// ref1 builds a depth-1 reference Array[I+c].
func ref1(array string, c int64) deps.Ref {
	return deps.Ref{Array: array, Index: []expr.Affine{expr.Index(1, 0, c)}}
}

// ref2 builds a depth-2 reference Array[I+ci, J+cj].
func ref2(array string, ci, cj int64) deps.Ref {
	return deps.Ref{Array: array, Index: []expr.Affine{expr.Index(2, 0, ci), expr.Index(2, 1, cj)}}
}

// Fig21 is the canonical loop of Fig 2.1:
//
//	DO I=1,N
//	  S1: A[I+3] = 10*I+3
//	  S2: t2     = A[I+1]
//	  S3: t3     = A[I+2]
//	  S4: A[I]   = t2+t3
//	  S5: OUT[I] = A[I-1]
//	END DO
//
// stmtCost is the compute cost of each statement (1 for unit experiments).
func Fig21(n, stmtCost int64) *codegen.Workload {
	s1 := &deps.Stmt{Name: "S1", Writes: []deps.Ref{ref1("A", 3)}, Cost: stmtCost}
	s2 := &deps.Stmt{Name: "S2", Reads: []deps.Ref{ref1("A", 1)}, Cost: stmtCost}
	s3 := &deps.Stmt{Name: "S3", Reads: []deps.Ref{ref1("A", 2)}, Cost: stmtCost}
	s4 := &deps.Stmt{Name: "S4", Writes: []deps.Ref{ref1("A", 0)}, Cost: stmtCost}
	s5 := &deps.Stmt{Name: "S5", Writes: []deps.Ref{ref1("OUT", 0)}, Reads: []deps.Ref{ref1("A", -1)}, Cost: stmtCost}
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: n}},
		[]loop.Node{loop.S(s1), loop.S(s2), loop.S(s3), loop.S(s4), loop.S(s5)},
	)
	return &codegen.Workload{
		Name:   "fig2.1",
		Nest:   nest,
		Locals: 2, // t2, t3
		Sem: map[*deps.Stmt]codegen.Sem{
			s1: func(idx, in, _, out []int64) {
				out[0] = 10*idx[0] + 3
			},
			s2: func(_, in, locals, _ []int64) {
				locals[0] = in[0] // t2
			},
			s3: func(_, in, locals, _ []int64) {
				locals[1] = in[0] // t3
			},
			s4: func(_, _, locals, out []int64) {
				out[0] = locals[0] + locals[1]
			},
			s5: func(_, in, _, out []int64) {
				out[0] = in[0]
			},
		},
		Setup: func(mem *sim.Mem) {
			a := mem.Array("A", 1-4, n+3)
			for i := a.Lo; i <= a.Hi; i++ {
				a.Set(i, 1000+i) // nonzero initial data exposes missed waits
			}
			mem.Array("OUT", 1, n)
		},
	}
}

// Nested is Example 2's multiply-nested Doacross loop:
//
//	DO I=1,N; DO J=1,M
//	  S1: A[I,J]   = I*100+J
//	  S2: B[I,J]   = A[I,J-1] + 1
//	  S3: OUT[I,J] = B[I-1,J-1] * 2
//
// Coalescing gives lpid distances 1 (S1->S2) and M+1 (S2->S3), the paper's
// wait_PC(1,1) and wait_PC(M+1,2).
func Nested(n, m, stmtCost int64) *codegen.Workload {
	s1 := &deps.Stmt{Name: "S1", Writes: []deps.Ref{ref2("A", 0, 0)}, Cost: stmtCost}
	s2 := &deps.Stmt{Name: "S2", Writes: []deps.Ref{ref2("B", 0, 0)}, Reads: []deps.Ref{ref2("A", 0, -1)}, Cost: stmtCost}
	s3 := &deps.Stmt{Name: "S3", Writes: []deps.Ref{ref2("OUT", 0, 0)}, Reads: []deps.Ref{ref2("B", -1, -1)}, Cost: stmtCost}
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: n}, {Name: "J", Lo: 1, Hi: m}},
		[]loop.Node{loop.S(s1), loop.S(s2), loop.S(s3)},
	)
	return &codegen.Workload{
		Name: "example2-nested",
		Nest: nest,
		Sem: map[*deps.Stmt]codegen.Sem{
			s1: func(idx, _, _, out []int64) {
				out[0] = idx[0]*100 + idx[1]
			},
			s2: func(_, in, _, out []int64) {
				out[0] = in[0] + 1
			},
			s3: func(_, in, _, out []int64) {
				out[0] = in[0] * 2
			},
		},
		Setup: func(mem *sim.Mem) {
			a := mem.Grid("A", 1, n, 0, m)
			b := mem.Grid("B", 0, n, 0, m)
			for i := a.Lo1; i <= a.Hi1; i++ {
				a.Set(i, 0, -i) // J=0 boundary column
			}
			for i := b.Lo1; i <= b.Hi1; i++ {
				b.Set(i, 0, 7*i)
			}
			for j := b.Lo2; j <= b.Hi2; j++ {
				b.Set(0, j, 7000+j)
			}
			mem.Grid("OUT", 1, n, 1, m)
		},
	}
}

// Branchy is an Example 3-shaped loop with a dependence source in each
// branch arm:
//
//	DO I=1,N
//	  S1: A[I+1] = I*3
//	  IF I odd THEN  S2: B[I+2] = A[I] + 1000
//	  ELSE           S3: B[I+2] = A[I] - 5
//	  S4: C[I] = B[I]
//	END DO
//
// Both arms write B[I+2], so S4 depends (distance 2) on whichever arm ran
// two iterations earlier; the untaken arm's step must still be published.
func Branchy(n, stmtCost int64) *codegen.Workload {
	s1 := &deps.Stmt{Name: "S1", Writes: []deps.Ref{ref1("A", 1)}, Cost: stmtCost}
	s2 := &deps.Stmt{Name: "S2", Writes: []deps.Ref{ref1("B", 2)}, Reads: []deps.Ref{ref1("A", 0)}, Cost: stmtCost}
	s3 := &deps.Stmt{Name: "S3", Writes: []deps.Ref{ref1("B", 2)}, Reads: []deps.Ref{ref1("A", 0)}, Cost: stmtCost}
	s4 := &deps.Stmt{Name: "S4", Writes: []deps.Ref{ref1("C", 0)}, Reads: []deps.Ref{ref1("B", 0)}, Cost: stmtCost}
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: n}},
		[]loop.Node{
			loop.S(s1),
			loop.IfNode{
				Name: "parity",
				Cond: func(idx []int64) bool { return idx[0]%2 == 1 },
				Then: []loop.Node{loop.S(s2)},
				Else: []loop.Node{loop.S(s3)},
			},
			loop.S(s4),
		},
	)
	return &codegen.Workload{
		Name: "example3-branchy",
		Nest: nest,
		Sem: map[*deps.Stmt]codegen.Sem{
			s1: func(idx, _, _, out []int64) { out[0] = idx[0] * 3 },
			s2: func(_, in, _, out []int64) { out[0] = in[0] + 1000 },
			s3: func(_, in, _, out []int64) { out[0] = in[0] - 5 },
			s4: func(_, in, _, out []int64) { out[0] = in[0] },
		},
		Setup: func(mem *sim.Mem) {
			a := mem.Array("A", 1, n+1)
			b := mem.Array("B", 1, n+2)
			for i := a.Lo; i <= a.Hi; i++ {
				a.Set(i, 50+i)
			}
			for i := b.Lo; i <= b.Hi; i++ {
				b.Set(i, 90+i)
			}
			mem.Array("C", 1, n)
		},
	}
}

// SelfRMW is the read-modify-write shape that once broke the data-oriented
// plan ordering: each iteration updates a forward element in place and a
// later iteration consumes it.
//
//	S1: A[I+1] = A[I+1]*3 + I   (read and write of the same element)
//	S2: OUT[I] = A[I]
func SelfRMW(n, stmtCost int64) *codegen.Workload {
	s1 := &deps.Stmt{
		Name:   "S1",
		Writes: []deps.Ref{ref1("A", 1)},
		Reads:  []deps.Ref{ref1("A", 1)},
		Cost:   stmtCost,
	}
	s2 := &deps.Stmt{
		Name:   "S2",
		Writes: []deps.Ref{ref1("OUT", 0)},
		Reads:  []deps.Ref{ref1("A", 0)},
		Cost:   stmtCost,
	}
	nest := loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}},
		[]loop.Node{loop.S(s1), loop.S(s2)})
	return &codegen.Workload{
		Name: "self-rmw",
		Nest: nest,
		Sem: map[*deps.Stmt]codegen.Sem{
			s1: func(idx, in, _, out []int64) {
				out[0] = in[0]*3 + idx[0]
			},
			s2: func(_, in, _, out []int64) {
				out[0] = in[0]
			},
		},
		Setup: func(mem *sim.Mem) {
			a := mem.Array("A", 1, n+1)
			for i := a.Lo; i <= a.Hi; i++ {
				a.Set(i, 7+i)
			}
			mem.Array("OUT", 1, n)
		},
	}
}

// Chain builds a loop with k independent recurrences, one per statement:
//
//	S_j: A_j[I] = A_j[I-1] + j     (j = 1..k)
//
// Every statement is a source of its own distance-1 flow dependence, so the
// statement-oriented scheme needs k counters for full pipelining while the
// process-oriented scheme still needs only X — the storage/performance
// crossover of E12.
func Chain(n int64, k int, stmtCost int64) *codegen.Workload {
	sem := make(map[*deps.Stmt]codegen.Sem)
	var nodes []loop.Node
	arr := func(j int) string { return fmt.Sprintf("A%d", j) }
	for j := 1; j <= k; j++ {
		s := &deps.Stmt{
			Name:   fmt.Sprintf("S%d", j),
			Writes: []deps.Ref{ref1(arr(j), 0)},
			Reads:  []deps.Ref{ref1(arr(j), -1)},
			Cost:   stmtCost,
		}
		jj := int64(j)
		sem[s] = func(_, in, _, out []int64) {
			out[0] = in[0] + jj
		}
		nodes = append(nodes, loop.S(s))
	}
	nest := loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}}, nodes)
	return &codegen.Workload{
		Name: fmt.Sprintf("chain(k=%d)", k),
		Nest: nest,
		Sem:  sem,
		Setup: func(mem *sim.Mem) {
			for j := 1; j <= k; j++ {
				a := mem.Array(arr(j), 0, n)
				a.Set(0, int64(100*j))
			}
		},
	}
}

// Stencil is the Example 1 relaxation as a generic depth-2 workload
// (A[I,J] = A[I-1,J] + A[I,J-1] over 2..N squared), usable both with full
// coalescing (ProcessOriented) and with outer pipelining (PipelinedOuter).
func Stencil(n, stmtCost int64) *codegen.Workload {
	s1 := &deps.Stmt{
		Name:   "S1",
		Writes: []deps.Ref{ref2("A", 0, 0)},
		Reads:  []deps.Ref{ref2("A", -1, 0), ref2("A", 0, -1)},
		Cost:   stmtCost,
	}
	nest := loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 2, Hi: n}, {Name: "J", Lo: 2, Hi: n}},
		[]loop.Node{loop.S(s1)},
	)
	return &codegen.Workload{
		Name: "stencil",
		Nest: nest,
		Sem: map[*deps.Stmt]codegen.Sem{
			s1: func(_, in, _, out []int64) {
				out[0] = in[0] + in[1]
			},
		},
		Setup: func(mem *sim.Mem) {
			a := mem.Grid("A", 1, n, 1, n)
			for i := int64(1); i <= n; i++ {
				a.Set(i, 1, 3*i+1)
				a.Set(1, i, i)
			}
		},
	}
}

// Recurrence is the first-order-style recurrence A[I] = A[I-d] + I with
// configurable dependence distance d (the pipeline parallelism is d).
func Recurrence(n, d, stmtCost int64) *codegen.Workload {
	s1 := &deps.Stmt{Name: "S1", Writes: []deps.Ref{ref1("A", 0)}, Reads: []deps.Ref{ref1("A", -d)}, Cost: stmtCost}
	nest := loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}}, []loop.Node{loop.S(s1)})
	return &codegen.Workload{
		Name: fmt.Sprintf("recurrence(d=%d)", d),
		Nest: nest,
		Sem: map[*deps.Stmt]codegen.Sem{
			s1: func(idx, in, _, out []int64) {
				out[0] = in[0] + idx[0]
			},
		},
		Setup: func(mem *sim.Mem) {
			a := mem.Array("A", 1-d, n)
			for i := a.Lo; i <= int64(0); i++ {
				a.Set(i, -i*11)
			}
		},
	}
}

// RandomBranchy wraps a random loop's middle statements in a parity branch,
// for property-testing the branch-covering publication rules: the two arms
// get distinct random statements, and a trailing statement reads what both
// arms write.
func RandomBranchy(rng *rand.Rand, n int64) *codegen.Workload {
	const margin = 4
	sem := make(map[*deps.Stmt]codegen.Sem)
	mkStmt := func(name, warr string, woff int64, rarr string, roff int64, k int64) *deps.Stmt {
		s := &deps.Stmt{
			Name:   name,
			Writes: []deps.Ref{ref1(warr, woff)},
			Reads:  []deps.Ref{ref1(rarr, roff)},
			Cost:   int64(1 + rng.Intn(3)),
		}
		sem[s] = func(idx, in, _, out []int64) {
			out[0] = in[0]*2 + idx[0] + k
		}
		return s
	}
	off := func() int64 { return int64(rng.Intn(2*margin-1) - (margin - 1)) }
	s1 := mkStmt("S1", "A", off(), "B", off(), 11)
	sThen := mkStmt("S2", "B", 2, "A", off(), 23)
	sElse := mkStmt("S3", "B", 2, "A", off(), 37)
	s4 := mkStmt("S4", "C", 0, "B", off(), 41)
	nest := loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}}, []loop.Node{
		loop.S(s1),
		loop.IfNode{
			Name: "parity",
			Cond: func(idx []int64) bool { return idx[0]%2 == 0 },
			Then: []loop.Node{loop.S(sThen)},
			Else: []loop.Node{loop.S(sElse)},
		},
		loop.S(s4),
	})
	return &codegen.Workload{
		Name: "random-branchy",
		Nest: nest,
		Sem:  sem,
		Setup: func(mem *sim.Mem) {
			for ai, name := range []string{"A", "B", "C"} {
				a := mem.Array(name, 1-margin, n+margin)
				for i := a.Lo; i <= a.Hi; i++ {
					a.Set(i, int64(ai+1)*500+i)
				}
			}
		},
	}
}

// Random generates a random straight-line constant-distance loop over up to
// three arrays, for property testing: every scheme must produce the same
// memory as serial execution. Semantics are deterministic functions of the
// inputs and the iteration index.
func Random(rng *rand.Rand, n int64, nStmts int) *codegen.Workload {
	arrays := []string{"A", "B", "C"}
	const margin = 4
	var nodes []loop.Node
	sem := make(map[*deps.Stmt]codegen.Sem)
	for si := 0; si < nStmts; si++ {
		s := &deps.Stmt{Name: fmt.Sprintf("S%d", si+1), Cost: int64(1 + rng.Intn(4))}
		s.Writes = []deps.Ref{ref1(arrays[rng.Intn(len(arrays))], int64(rng.Intn(2*margin-1)-(margin-1)))}
		for r := rng.Intn(3); r > 0; r-- {
			s.Reads = append(s.Reads, ref1(arrays[rng.Intn(len(arrays))], int64(rng.Intn(2*margin-1)-(margin-1))))
		}
		k := int64(si + 1)
		sem[s] = func(idx, in, _, out []int64) {
			v := idx[0]*7 + k*13
			for _, x := range in {
				v += 3*x + 1
			}
			out[0] = v
		}
		nodes = append(nodes, loop.S(s))
	}
	nest := loop.MustNew([]loop.Index{{Name: "I", Lo: 1, Hi: n}}, nodes)
	return &codegen.Workload{
		Name: fmt.Sprintf("random(%d stmts)", nStmts),
		Nest: nest,
		Sem:  sem,
		Setup: func(mem *sim.Mem) {
			for ai, name := range arrays {
				a := mem.Array(name, 1-margin, n+margin)
				for i := a.Lo; i <= a.Hi; i++ {
					a.Set(i, int64(ai+1)*1000+i)
				}
			}
		},
	}
}
