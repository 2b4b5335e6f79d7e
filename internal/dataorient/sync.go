package dataorient

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
)

// SimKeys places one reference-based key per touched element into the
// machine's memory modules (elements are distributed round-robin, the way
// interleaved memory spreads an array), and builds the access protocol ops:
// poll until key >= ticket, access, increment. The keys are one block of
// variables in the plan's element order, so element i's key is base+i.
type SimKeys struct {
	plan *Plan
	base sim.VarID
}

// NewSimKeys declares the plan's keys on the machine.
func NewSimKeys(m *sim.Machine, p *Plan) *SimKeys {
	return &SimKeys{plan: p, base: m.NewMemVars(len(p.Order), keyNames{p})}
}

// keyNames names element i's key "key:A[i]".
type keyNames struct{ p *Plan }

func (n keyNames) VarName(i int) string { return "key:" + n.p.names[i] }

// Keys returns the number of keys declared.
func (k *SimKeys) Keys() int { return len(k.plan.Order) }

// WaitOp polls the element's key until the access's ticket is reached.
func (k *SimKeys) WaitOp(a *Access) sim.Op {
	return k.WaitTicketOp(a.ElemIdx, a.Ticket)
}

// WaitTicketOp polls the key of element ei (its index in the plan's Order)
// until the given ticket is reached. Code generators that execute a whole
// statement as one atomic compute wait on the minimum ticket among the
// statement's accesses to the element (its accesses are consecutive in the
// element's serial order, so the later tickets differ only by the
// statement's own increments).
func (k *SimKeys) WaitTicketOp(ei int, ticket int64) sim.Op {
	op := sim.WaitGE(k.base+sim.VarID(ei), ticket, "")
	op.Tag = sim.TagSf("key:wait %s>=%d", k.plan.names[ei], ticket)
	return op
}

// IncOp increments the element's key after the access completes. The access
// executes only once the key has reached its ticket, so the post-increment
// value is statically a.Ticket+1 — stamped for the static verifier.
func (k *SimKeys) IncOp(a *Access) sim.Op {
	op := sim.RMWPost(k.base+sim.VarID(a.ElemIdx), inc, a.Ticket+1, "")
	op.Tag = sim.TagSf("key:inc %s", k.plan.names[a.ElemIdx])
	return op
}

func inc(x int64) int64 { return x + 1 }

// SimBits places the instance-based full/empty bits: one per consumable
// copy of each written version, declared as one block in the plan's bit
// order (Access.Bit), so bit b is base+b. Reads of initial data (epoch 0)
// have no bit and need no synchronization.
type SimBits struct {
	plan *Plan
	base sim.VarID
}

// NewSimBits declares the plan's full/empty bits on the machine.
func NewSimBits(m *sim.Machine, p *Plan) *SimBits {
	return &SimBits{plan: p, base: m.NewMemVars(int(p.foot.Bits), bitNames{p})}
}

// bitNames names bit b "fe:A[i].v<version>.c<copy>".
type bitNames struct{ p *Plan }

func (n bitNames) VarName(b int) string {
	ws := n.p.bitWrites
	w := ws[sort.Search(len(ws), func(i int) bool { return ws[i].Bit > b })-1]
	return sim.TagSf("fe:%s.v%d.c%d", n.p.names[w.ElemIdx], w.Epoch+1, int64(b-w.Bit)).String()
}

// Bits returns the number of full/empty bits declared.
func (b *SimBits) Bits() int { return int(b.plan.foot.Bits) }

// FillOps appends to dst the writes that store a write access's copies and
// set their bits full — one memory write per copy, per the paper's
// "write N copies of data; set all keys to full".
func (b *SimBits) FillOps(dst []sim.Op, a *Access) []sim.Op {
	if a.Kind != deps.Write {
		panic("dataorient: FillOps on a read access")
	}
	copies := max(a.Readers, 1)
	for c := 0; c < copies; c++ {
		op := sim.WriteVar(b.base+sim.VarID(a.Bit+c), 1, "")
		op.Tag = sim.TagSf("fe:fill %s.v%d.c%d", b.plan.names[a.ElemIdx], a.Epoch+1, int64(c))
		dst = append(dst, op)
	}
	return dst
}

// ConsumeOp returns the poll that waits for the reader's own copy to be
// full. Reads of initial data need no wait and get a free no-op.
func (b *SimBits) ConsumeOp(a *Access) sim.Op {
	if a.Kind != deps.Read {
		panic("dataorient: ConsumeOp on a write access")
	}
	if a.Epoch == 0 {
		return sim.Compute(0, nil, 0, "fe:init-data")
	}
	op := sim.WaitGE(b.base+sim.VarID(a.Bit), 1, "")
	op.Tag = sim.TagSf("fe:consume %s.v%d.c%d", b.plan.names[a.ElemIdx], a.Epoch, int64(a.CopyIdx))
	return op
}

// VersionStore holds the renamed (single-assignment) storage of an
// instance-based execution: version 0 is the pre-loop value, version v the
// value stored by the element's v-th write. It is one dense table in the
// plan's element order, sized once: element i's versions start at the
// plan's verBase[i].
type VersionStore struct {
	plan *Plan
	vals []int64
}

// NewVersionStore builds the store for one execution of the plan, taking
// every element's version 0 from mem.
func NewVersionStore(p *Plan, mem *sim.Mem) *VersionStore {
	s := &VersionStore{plan: p, vals: make([]int64, p.verBase[len(p.Order)])}
	var r elemRef
	for i, e := range p.Order {
		s.vals[p.verBase[i]] = r.at(mem, e).get(e)
	}
	return s
}

// Get reads version epoch of element ei (its index in the plan's Order).
func (s *VersionStore) Get(ei int, epoch int64) int64 {
	return s.vals[s.slot(ei, epoch)]
}

// Set stores version v (>= 1) of element ei.
func (s *VersionStore) Set(ei int, v int64, val int64) {
	if v < 1 {
		panic("dataorient: version must be >= 1")
	}
	s.vals[s.slot(ei, v)] = val
}

func (s *VersionStore) slot(ei int, v int64) int {
	base := s.plan.verBase[ei]
	if v < 0 || base+int(v) >= s.plan.verBase[ei+1] {
		panic(fmt.Sprintf("dataorient: %s has no version %d", s.plan.names[ei], v))
	}
	return base + int(v)
}

// Last returns element ei's final value (its last version) and true, or
// false when the plan never writes it — used to reconstruct the array
// after a renamed execution for comparison against serial in-place
// execution.
func (s *VersionStore) Last(ei int) (int64, bool) {
	end := s.plan.verBase[ei+1] - 1
	if end == s.plan.verBase[ei] {
		return 0, false
	}
	return s.vals[end], true
}

// WriteBack folds the last version of every written element into mem.
func (s *VersionStore) WriteBack(mem *sim.Mem) {
	var r elemRef
	for i, e := range s.plan.Order {
		if v, ok := s.Last(i); ok {
			r.at(mem, e).set(e, v)
		}
	}
}

// elemRef caches the memory array of the last element looked up: the
// plan's Order groups elements by array, so a pass over it looks each
// array up once.
type elemRef struct {
	name string
	dims int
	arr  *sim.Array
	grid *sim.Grid
}

func (r *elemRef) at(mem *sim.Mem, e Elem) *elemRef {
	if r.name == e.Array && r.dims == e.Dims && (r.arr != nil || r.grid != nil) {
		return r
	}
	r.name, r.dims, r.arr, r.grid = e.Array, e.Dims, nil, nil
	switch e.Dims {
	case 1:
		r.arr = mem.Lookup(e.Array)
	case 2:
		r.grid = mem.LookupGrid(e.Array)
	default:
		panic("dataorient: unsupported element dimensionality")
	}
	if r.arr == nil && r.grid == nil {
		panic("dataorient: array not declared in memory: " + e.Array)
	}
	return r
}

func (r *elemRef) get(e Elem) int64 {
	if r.arr != nil {
		return r.arr.Get(e.C[0])
	}
	return r.grid.Get(e.C[0], e.C[1])
}

func (r *elemRef) set(e Elem, v int64) {
	if r.arr != nil {
		r.arr.Set(e.C[0], v)
		return
	}
	r.grid.Set(e.C[0], e.C[1], v)
}

// RuntimeKeys is the goroutine implementation of reference-based keys.
type RuntimeKeys struct {
	plan *Plan
	keys map[Elem]*atomic.Int64
}

// NewRuntimeKeys allocates one atomic key per planned element.
func NewRuntimeKeys(p *Plan) *RuntimeKeys {
	rk := &RuntimeKeys{plan: p, keys: make(map[Elem]*atomic.Int64, len(p.Order))}
	for _, e := range p.Order {
		rk.keys[e] = new(atomic.Int64)
	}
	return rk
}

// Acquire spins until the access's ticket is reached.
func (rk *RuntimeKeys) Acquire(a *Access) {
	k := rk.keys[a.Elem]
	for k.Load() < a.Ticket {
		runtime.Gosched()
	}
}

// Release increments the element's key after the access.
func (rk *RuntimeKeys) Release(a *Access) {
	rk.keys[a.Elem].Add(1)
}

// Key returns the current key value of an element (for tests).
func (rk *RuntimeKeys) Key(e Elem) int64 { return rk.keys[e].Load() }
