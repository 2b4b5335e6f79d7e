package dataorient

import (
	"testing"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
)

// TestSimKeysProtocol drives the Fig 3.1a key protocol for one element on
// a simulated machine: a writer, two unordered readers, a second writer.
func TestSimKeysProtocol(t *testing.T) {
	const n = 20
	plan := BuildPlan(fig21Nest(n))
	m := sim.New(sim.Config{Processors: 4, MemLatency: 2, Modules: 4, SyncOpCost: 0})
	keys := NewSimKeys(m, plan)
	if keys.Keys() != len(plan.Order) {
		t.Fatalf("Keys = %d, want %d", keys.Keys(), len(plan.Order))
	}
	// The five accesses to A[10] (see plan_test), one per processor where
	// possible; run them in adversarial order (late accesses first in
	// program position, correctness ensured by the key protocol alone).
	seq := plan.Elems[elem(10)]
	if len(seq) != 5 {
		t.Fatalf("A[10] accesses = %d", len(seq))
	}
	var order []int
	record := func(i int) sim.Op {
		return sim.Compute(1, sim.EffectFunc(func(int64) { order = append(order, i) }), 0, "access")
	}
	// Processor programs: p0 gets the two writes (in order), p1/p2 the
	// unordered readers, p3 the final read.
	progs := [][]sim.Op{
		{keys.WaitOp(seq[0]), record(0), keys.IncOp(seq[0]),
			keys.WaitOp(seq[3]), record(3), keys.IncOp(seq[3])},
		{keys.WaitOp(seq[1]), record(1), keys.IncOp(seq[1])},
		{keys.WaitOp(seq[2]), record(2), keys.IncOp(seq[2])},
		{keys.WaitOp(seq[4]), record(4), keys.IncOp(seq[4])},
	}
	if _, err := m.RunProcesses(progs); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("executed %d accesses", len(order))
	}
	pos := make(map[int]int)
	for i, a := range order {
		pos[a] = i
	}
	// Write 0 first; reads 1,2 in any order before write 3; read 4 last.
	if pos[0] != 0 || pos[3] != 3 || pos[4] != 4 {
		t.Errorf("access order %v violates the ticket protocol", order)
	}
}

func TestSimKeysFinalValue(t *testing.T) {
	plan := BuildPlan(fig21Nest(10))
	m := sim.New(sim.Config{Processors: 1, MemLatency: 1, SyncOpCost: 0})
	keys := NewSimKeys(m, plan)
	seq := plan.Elems[elem(5)]
	var ops []sim.Op
	for _, a := range seq {
		ops = append(ops, keys.WaitOp(a), keys.IncOp(a))
	}
	if _, err := m.RunProcesses([][]sim.Op{ops}); err != nil {
		t.Fatal(err)
	}
	// The key ends at the total access count — what FinalKey predicts.
	want := plan.FinalKey(elem(5))
	if got := m.VarValue(keysVar(t, keys, elem(5))); got != want {
		t.Errorf("final key = %d, want %d", got, want)
	}
}

func keysVar(t *testing.T, k *SimKeys, e Elem) sim.VarID {
	t.Helper()
	seq, ok := k.plan.Elems[e]
	if !ok {
		t.Fatalf("no key for %s", e)
	}
	return k.base + sim.VarID(seq[0].ElemIdx)
}

// TestSimBitsProtocol drives the instance-based full/empty protocol: the
// consumer waits for its copy; initial-data reads need no wait.
func TestSimBitsProtocol(t *testing.T) {
	plan := BuildPlan(fig21Nest(20))
	m := sim.New(sim.Config{Processors: 2, MemLatency: 2, Modules: 2, SyncOpCost: 0})
	bits := NewSimBits(m, plan)
	if bits.Bits() == 0 {
		t.Fatal("no bits declared")
	}
	seq := plan.Elems[elem(10)]
	write, read := seq[0], seq[1] // S1 write (2 copies), S3 read (copy 0 or 1)
	var consumedAt, filledAt int64 = -1, -1
	progs := [][]sim.Op{
		append(bits.FillOps([]sim.Op{sim.Compute(9, nil, 0, "produce")}, write),
			sim.Compute(1, sim.EffectFunc(func(int64) { filledAt = 1 }), 0, "")),
		{bits.ConsumeOp(read), sim.Compute(1, sim.EffectFunc(func(int64) { consumedAt = 1 }), 0, "consume")},
	}
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatal(err)
	}
	if consumedAt != 1 || filledAt != 1 {
		t.Error("protocol did not complete")
	}
	// The consumer waited for the fill: at least the 9-cycle produce.
	if stats.Procs[1].WaitSync < 9 {
		t.Errorf("consumer WaitSync = %d, want >= 9", stats.Procs[1].WaitSync)
	}
	// FillOps wrote two copies (two module writes).
	if n := len(bits.FillOps(nil, write)); n != 2 {
		t.Errorf("FillOps = %d ops, want 2", n)
	}
}

func TestConsumeInitialDataIsFree(t *testing.T) {
	plan := BuildPlan(fig21Nest(20))
	m := sim.New(sim.Config{Processors: 1})
	bits := NewSimBits(m, plan)
	// A[0] is read once (S5@1) from initial data: epoch 0, free no-op.
	a := plan.Elems[elem(0)][0]
	op := bits.ConsumeOp(a)
	if op.Kind != sim.OpCompute || op.Cycles != 0 {
		t.Errorf("ConsumeOp(initial) = %v, want free no-op", op)
	}
}

func TestSyncBuilderPanics(t *testing.T) {
	plan := BuildPlan(fig21Nest(10))
	m := sim.New(sim.Config{Processors: 1})
	bits := NewSimBits(m, plan)
	seq := plan.Elems[elem(5)]
	var w, r *Access
	for _, a := range seq {
		if a.Kind == deps.Write && w == nil {
			w = a
		}
		if a.Kind == deps.Read && r == nil {
			r = a
		}
	}
	for name, f := range map[string]func(){
		"FillOps(read)":    func() { bits.FillOps(nil, r) },
		"ConsumeOp(write)": func() { bits.ConsumeOp(w) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestElemString(t *testing.T) {
	e := Elem{Array: "B", Dims: 2, C: [3]int64{3, -1, 0}}
	if s := e.String(); s != "B[3,-1]" {
		t.Errorf("String = %q", s)
	}
}
