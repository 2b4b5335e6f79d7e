package dataorient

import (
	"runtime"
	"sync/atomic"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
)

// elemVar is a declared synchronization variable together with the name of
// the element it guards, which the variable's op tags render.
type elemVar struct {
	id   sim.VarID
	elem string
}

// SimKeys places one reference-based key per touched element into the
// machine's memory modules (elements are distributed round-robin, the way
// interleaved memory spreads an array), and builds the access protocol ops:
// poll until key >= ticket, access, increment.
type SimKeys struct {
	plan *Plan
	vars map[Elem]elemVar
}

// NewSimKeys declares the plan's keys on the machine.
func NewSimKeys(m *sim.Machine, p *Plan) *SimKeys {
	k := &SimKeys{plan: p, vars: make(map[Elem]elemVar, len(p.Order))}
	mods := m.Config().Modules
	for i, e := range p.Order {
		k.vars[e] = elemVar{m.NewLabeledMemVar(sim.TagSf("key:%s", p.names[i]), i%mods, 0), p.names[i]}
	}
	return k
}

// Keys returns the number of keys declared.
func (k *SimKeys) Keys() int { return len(k.vars) }

// WaitOp polls the element's key until the access's ticket is reached.
func (k *SimKeys) WaitOp(a *Access) sim.Op {
	return k.WaitTicketOp(a.Elem, a.Ticket)
}

// WaitTicketOp polls the element's key until the given ticket is reached.
// Code generators that execute a whole statement as one atomic compute wait
// on the minimum ticket among the statement's accesses to the element (its
// accesses are consecutive in the element's serial order, so the later
// tickets differ only by the statement's own increments).
func (k *SimKeys) WaitTicketOp(e Elem, ticket int64) sim.Op {
	v := k.vars[e]
	op := sim.WaitGE(v.id, ticket, "")
	op.Tag = sim.TagSf("key:wait %s>=%d", v.elem, ticket)
	return op
}

// IncOp increments the element's key after the access completes. The access
// executes only once the key has reached its ticket, so the post-increment
// value is statically a.Ticket+1 — stamped for the static verifier.
func (k *SimKeys) IncOp(a *Access) sim.Op {
	v := k.vars[a.Elem]
	op := sim.RMWPost(v.id, inc, a.Ticket+1, "")
	op.Tag = sim.TagSf("key:inc %s", v.elem)
	return op
}

func inc(x int64) int64 { return x + 1 }

// SimBits places the instance-based full/empty bits: one per consumable
// copy of each written version. Reads of initial data (epoch 0) have no
// bit and need no synchronization.
type SimBits struct {
	plan *Plan
	vars map[bitKey]elemVar
}

type bitKey struct {
	e       Elem
	version int64
	copyIdx int
}

// NewSimBits declares the plan's full/empty bits on the machine.
func NewSimBits(m *sim.Machine, p *Plan) *SimBits {
	b := &SimBits{plan: p, vars: make(map[bitKey]elemVar, p.Footprint().Bits)}
	mods := m.Config().Modules
	i := 0
	for ei, e := range p.Order {
		for _, a := range p.Elems[e] {
			if a.Kind != deps.Write {
				continue
			}
			copies := a.Readers
			if copies == 0 {
				copies = 1
			}
			for c := 0; c < copies; c++ {
				key := bitKey{e, a.Epoch + 1, c}
				name := sim.TagSf("fe:%s.v%d.c%d", p.names[ei], a.Epoch+1, int64(c))
				b.vars[key] = elemVar{m.NewLabeledMemVar(name, i%mods, 0), p.names[ei]}
				i++
			}
		}
	}
	return b
}

// Bits returns the number of full/empty bits declared.
func (b *SimBits) Bits() int { return len(b.vars) }

// FillOps appends to dst the writes that store a write access's copies and
// set their bits full — one memory write per copy, per the paper's
// "write N copies of data; set all keys to full".
func (b *SimBits) FillOps(dst []sim.Op, a *Access) []sim.Op {
	if a.Kind != deps.Write {
		panic("dataorient: FillOps on a read access")
	}
	copies := a.Readers
	if copies == 0 {
		copies = 1
	}
	for c := 0; c < copies; c++ {
		v := b.vars[bitKey{a.Elem, a.Epoch + 1, c}]
		op := sim.WriteVar(v.id, 1, "")
		op.Tag = sim.TagSf("fe:fill %s.v%d.c%d", v.elem, a.Epoch+1, int64(c))
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
		return sim.Compute(0, nil, "fe:init-data")
	}
	v := b.vars[bitKey{a.Elem, a.Epoch, a.CopyIdx}]
	op := sim.WaitGE(v.id, 1, "")
	op.Tag = sim.TagSf("fe:consume %s.v%d.c%d", v.elem, a.Epoch, int64(a.CopyIdx))
	return op
}

// VersionStore holds the renamed (single-assignment) storage of an
// instance-based execution: version 0 is the pre-loop value, version v the
// value stored by the element's v-th write.
type VersionStore struct {
	init func(Elem) int64
	m    map[Elem][]int64
}

// NewVersionStore builds a store over the given initial-value function.
func NewVersionStore(init func(Elem) int64) *VersionStore {
	return &VersionStore{init: init, m: make(map[Elem][]int64)}
}

// Get reads version epoch of element e.
func (s *VersionStore) Get(e Elem, epoch int64) int64 {
	if epoch == 0 {
		return s.init(e)
	}
	return s.m[e][epoch-1]
}

// Set stores version v (>= 1) of element e.
func (s *VersionStore) Set(e Elem, v int64, val int64) {
	if v < 1 {
		panic("dataorient: version must be >= 1")
	}
	vs := s.m[e]
	for int64(len(vs)) < v {
		vs = append(vs, 0)
	}
	vs[v-1] = val
	s.m[e] = vs
}

// Last returns the element's final value (last version, or the initial
// value if never written) — used to reconstruct the array after a renamed
// execution for comparison against serial in-place execution.
func (s *VersionStore) Last(e Elem) (int64, bool) {
	vs, ok := s.m[e]
	if !ok || len(vs) == 0 {
		return 0, false
	}
	return vs[len(vs)-1], true
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
