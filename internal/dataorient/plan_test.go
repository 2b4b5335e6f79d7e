package dataorient

import (
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
	"github.com/csrd-repro/datasync/internal/loop"
	"github.com/csrd-repro/datasync/internal/sim"
)

// fig21Nest is the loop of Fig 2.1 over I=1..n.
func fig21Nest(n int64) *loop.Nest {
	ref := func(c int64) deps.Ref {
		return deps.Ref{Array: "A", Index: []expr.Affine{expr.Index(1, 0, c)}}
	}
	return loop.MustNew(
		[]loop.Index{{Name: "I", Lo: 1, Hi: n}},
		[]loop.Node{
			loop.S(&deps.Stmt{Name: "S1", Writes: []deps.Ref{ref(3)}, Cost: 1}),
			loop.S(&deps.Stmt{Name: "S2", Reads: []deps.Ref{ref(1)}, Cost: 1}),
			loop.S(&deps.Stmt{Name: "S3", Reads: []deps.Ref{ref(2)}, Cost: 1}),
			loop.S(&deps.Stmt{Name: "S4", Writes: []deps.Ref{ref(0)}, Cost: 1}),
			loop.S(&deps.Stmt{Name: "S5", Reads: []deps.Ref{ref(-1)}, Cost: 1}),
		},
	)
}

func elem(c int64) Elem { return Elem{Array: "A", Dims: 1, C: [3]int64{c, 0, 0}} }

// TestFig31aTickets reproduces Fig 3.1a: accesses to the element A[i+3]
// (for an interior i) get tickets 0 (S1 write), 1 and 1 (S3, S2 reads),
// 3 (S4 write), 4 (S5 read).
func TestFig31aTickets(t *testing.T) {
	const n = 20
	p := BuildPlan(fig21Nest(n))
	// Element A[10] (= i+3 for i=7): accessed by S1@7, S3@8, S2@9, S4@10, S5@11.
	seq := p.Elems[elem(10)]
	if len(seq) != 5 {
		t.Fatalf("A[10] has %d accesses, want 5", len(seq))
	}
	type want struct {
		lpid    int64
		stmtPos int
		kind    deps.Access
		ticket  int64
	}
	wants := []want{
		{7, 0, deps.Write, 0},  // S1
		{8, 2, deps.Read, 1},   // S3 reads A[I+2] at I=8
		{9, 1, deps.Read, 1},   // S2 reads A[I+1] at I=9
		{10, 3, deps.Write, 3}, // S4
		{11, 4, deps.Read, 4},  // S5 reads A[I-1] at I=11
	}
	for i, w := range wants {
		a := seq[i]
		if a.ID.Lpid != w.lpid || a.ID.StmtPos != w.stmtPos || a.Kind != w.kind || a.Ticket != w.ticket {
			t.Errorf("access %d = lpid=%d pos=%d %v ticket=%d, want %+v",
				i, a.ID.Lpid, a.ID.StmtPos, a.Kind, a.Ticket, w)
		}
	}
	if got := p.FinalKey(elem(10)); got != 5 {
		t.Errorf("final key = %d, want 5", got)
	}
}

// TestBoundaryElementsDifferentCounts shows the boundary problem the paper
// raises for data-oriented schemes: border elements have fewer accesses.
func TestBoundaryElementsDifferentCounts(t *testing.T) {
	const n = 20
	p := BuildPlan(fig21Nest(n))
	// A[0] is only read by S5@1: one access, ticket 0 (initial data).
	seq := p.Elems[elem(0)]
	if len(seq) != 1 || seq[0].Kind != deps.Read || seq[0].Ticket != 0 {
		t.Errorf("A[0] plan wrong: %+v", seq)
	}
	// A[4] = 1+3: written by S1@1, read by S3@2, S2@3, written by S4@4, read by S5@5.
	if got := p.FinalKey(elem(4)); got != 5 {
		t.Errorf("A[4] accesses = %d, want 5", got)
	}
	// A[N+3] is only written by S1@N.
	if got := p.FinalKey(elem(n + 3)); got != 1 {
		t.Errorf("A[N+3] accesses = %d, want 1", got)
	}
}

// TestEpochsAndCopies checks the instance-based renaming plan: each write
// opens a new version; readers between writes consume distinct copies.
func TestEpochsAndCopies(t *testing.T) {
	p := BuildPlan(fig21Nest(20))
	seq := p.Elems[elem(10)]
	s1, s3, s2, s4, s5 := seq[0], seq[1], seq[2], seq[3], seq[4]
	if s1.Epoch != 0 || s1.Readers != 2 {
		t.Errorf("S1 write: epoch=%d readers=%d, want 0,2", s1.Epoch, s1.Readers)
	}
	if s3.Epoch != 1 || s2.Epoch != 1 {
		t.Errorf("reads of version 1: epochs %d,%d", s3.Epoch, s2.Epoch)
	}
	if s3.CopyIdx == s2.CopyIdx {
		t.Error("two readers share a copy")
	}
	if s4.Epoch != 1 || s4.Readers != 1 {
		t.Errorf("S4 write: epoch=%d readers=%d, want 1,1", s4.Epoch, s4.Readers)
	}
	if s5.Epoch != 2 || s5.CopyIdx != 0 {
		t.Errorf("S5 read: epoch=%d copy=%d, want 2,0", s5.Epoch, s5.CopyIdx)
	}
}

func TestFootprint(t *testing.T) {
	const n = 20
	p := BuildPlan(fig21Nest(n))
	f := p.Footprint()
	// Touched elements: A[0..N+3] minus A[1+1=...]: S1 writes 4..N+3, S2
	// reads 2..N+1, S3 reads 3..N+2, S4 writes 1..N, S5 reads 0..N-1.
	// Union: 0..N+3 = N+4 elements.
	if f.Keys != n+4 {
		t.Errorf("Keys = %d, want %d", f.Keys, n+4)
	}
	if f.InitOps != f.Keys {
		t.Errorf("InitOps = %d, want %d", f.InitOps, f.Keys)
	}
	// Versions: one per write instance = 2N (S1 and S4 each write once per
	// iteration).
	if f.Versions != 2*n {
		t.Errorf("Versions = %d, want %d", f.Versions, 2*n)
	}
	if f.Copies < f.Versions {
		t.Errorf("Copies = %d < Versions = %d", f.Copies, f.Versions)
	}
	if f.Bits != f.Copies {
		t.Errorf("Bits = %d, want %d", f.Bits, f.Copies)
	}
}

// TestTicketOrderSound: replaying each element's accesses in any order
// consistent with tickets (writes exclusive, equal-ticket reads unordered)
// must equal serial order up to read permutations. Here we verify the
// structural invariants tickets must satisfy.
func TestTicketOrderSound(t *testing.T) {
	p := BuildPlan(fig21Nest(50))
	for _, e := range p.Order {
		seq := p.Elems[e]
		var count int64
		for i, a := range seq {
			switch a.Kind {
			case deps.Write:
				// A write's ticket equals the number of prior accesses:
				// it waits for all of them.
				if a.Ticket != count {
					t.Fatalf("%s access %d: write ticket %d, want %d", e, i, a.Ticket, count)
				}
			case deps.Read:
				// A read's ticket admits it after the preceding write
				// committed but concurrently with sibling reads.
				if a.Ticket > count {
					t.Fatalf("%s access %d: read ticket %d unreachable (count %d)", e, i, a.Ticket, count)
				}
			}
			count++
		}
	}
}

func TestVersionStore(t *testing.T) {
	p := BuildPlan(fig21Nest(20))
	mem := sim.NewMem()
	a := mem.Array("A", -3, 23)
	for i := a.Lo; i <= a.Hi; i++ {
		a.Set(i, 100+i)
	}
	s := NewVersionStore(p, mem)
	ei := p.Elems[elem(10)][0].ElemIdx
	if got := s.Get(ei, 0); got != 110 {
		t.Errorf("initial = %d, want 110", got)
	}
	s.Set(ei, 2, 55) // versions may land out of order
	s.Set(ei, 1, 44)
	if s.Get(ei, 1) != 44 || s.Get(ei, 2) != 55 {
		t.Error("version values wrong")
	}
	if v, ok := s.Last(ei); !ok || v != 55 {
		t.Errorf("Last = %d,%v, want 55,true", v, ok)
	}
	// A[0] is only read (by S5 at I=1).
	if _, ok := s.Last(p.Elems[elem(0)][0].ElemIdx); ok {
		t.Error("Last of never-written element should be false")
	}
	s.WriteBack(mem)
	if a.Get(10) != 55 || a.Get(0) != 100 {
		t.Errorf("after WriteBack A[10]=%d A[0]=%d, want 55 and the untouched 100", a.Get(10), a.Get(0))
	}
}

// TestRuntimeKeysEnforceOrder drives the ref-based runtime protocol with
// goroutines on the Fig 2.1 loop and checks serial equivalence.
func TestRuntimeKeysEnforceOrder(t *testing.T) {
	const n = 120
	nest := fig21Nest(n)
	p := BuildPlan(nest)
	rk := NewRuntimeKeys(p)
	a := make([]int64, n+4+1) // A[0..N+3], slot i holds A[i]
	out := make([]int64, n+1)
	var wg sync.WaitGroup
	work := make(chan int64, n)
	for i := int64(1); i <= n; i++ {
		work <- i
	}
	close(work)
	get := func(id AccessID) *Access { return p.Accesses(id.Lpid, id.StmtPos)[id.RefSlot] }
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// S1: A[I+3] = 10*i+3
				ac := get(AccessID{i, 0, 0})
				rk.Acquire(ac)
				a[i+3] = 10*i + 3
				rk.Release(ac)
				// S2: t2 = A[I+1]
				ac = get(AccessID{i, 1, 0})
				rk.Acquire(ac)
				t2 := a[i+1]
				rk.Release(ac)
				// S3: t3 = A[I+2]
				ac = get(AccessID{i, 2, 0})
				rk.Acquire(ac)
				t3 := a[i+2]
				rk.Release(ac)
				// S4: A[I] = t2 + t3
				ac = get(AccessID{i, 3, 0})
				rk.Acquire(ac)
				a[i] = t2 + t3
				rk.Release(ac)
				// S5: out[i] = A[I-1]
				ac = get(AccessID{i, 4, 0})
				rk.Acquire(ac)
				out[i] = a[i-1]
				rk.Release(ac)
			}
		}()
	}
	wg.Wait()
	// Serial oracle.
	wa := make([]int64, n+4+1)
	wout := make([]int64, n+1)
	for i := int64(1); i <= n; i++ {
		wa[i+3] = 10*i + 3
		t2, t3 := wa[i+1], wa[i+2]
		wa[i] = t2 + t3
		wout[i] = wa[i-1]
	}
	for i := range wa {
		if a[i] != wa[i] {
			t.Fatalf("A[%d] = %d, want %d", i, a[i], wa[i])
		}
	}
	for i := range wout {
		if out[i] != wout[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], wout[i])
		}
	}
	// Keys ended at their access counts.
	if rk.Key(elem(10)) != 5 {
		t.Errorf("final key A[10] = %d, want 5", rk.Key(elem(10)))
	}
}
