// Package dataorient implements the data-oriented synchronization schemes
// of section 3.1: one synchronization variable (key) per datum.
//
// Reference-based scheme (Cedar keys, Fig 3.1a): each array element carries
// a counter key; every access holds a statically assigned ticket, spins
// until key >= ticket, performs the access, and increments the key.
// Consecutive reads between two writes share a ticket and may proceed in
// any order.
//
// Instance-based scheme (HEP full/empty bits, Fig 3.1b): compile-time
// renaming gives every updated value a fresh location and full/empty bit,
// eliminating anti- and output dependences; a write stores one consumable
// copy per reader ("write N copies of data; set all keys to full"), and
// each reader waits on and consumes its own copy. Reads of initial data
// have no producer and need no synchronization.
//
// Both schemes require whole-iteration-space planning: the number of
// accesses per element is fixed per loop, differs at the iteration-space
// boundaries, and cannot be made uniform by linearization — which is the
// boundary-overhead argument of Example 2. Plan performs that planning; it
// is the compile-time work a data-oriented compiler must do.
package dataorient

import (
	"slices"
	"sort"
	"strconv"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/loop"
)

// Elem identifies one array element (up to 3 subscript dimensions).
type Elem struct {
	Array string
	Dims  int
	C     [3]int64
}

// String renders e as "A[i,j]".
func (e Elem) String() string {
	b := make([]byte, 0, len(e.Array)+8)
	b = append(b, e.Array...)
	b = append(b, '[')
	for d := 0; d < e.Dims; d++ {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, e.C[d], 10)
	}
	return string(append(b, ']'))
}

// AccessID locates one reference instance: iteration (lpid), statement
// position in the flattened body, and the reference slot within the
// statement (writes first, then reads, each in declaration order).
type AccessID struct {
	Lpid    int64
	StmtPos int
	RefSlot int
}

// Access is one planned, synchronized array access.
type Access struct {
	ID   AccessID
	Elem Elem
	Kind deps.Access
	// ElemIdx is Elem's position in the plan's Order: the index of its
	// key, and of its renamed versions in a VersionStore.
	ElemIdx int

	// Ticket is the reference-based order number (Fig 3.1a).
	Ticket int64

	// Epoch is the element's version this access touches: reads read
	// version Epoch (0 = initial data), a write creates version Epoch+1.
	Epoch int64
	// CopyIdx is, for reads, which consumable copy of the version this
	// reader takes; for writes, unused.
	CopyIdx int
	// Readers is, for writes, how many copies the instance-based scheme
	// stores; for reads, unused.
	Readers int
	// Bit numbers the instance-based full/empty bits in plan order
	// (Order, then each element's writes, then copies): for a write, the
	// bit of its first copy; for a read of a written version, the bit of
	// its own copy; -1 for a read of initial data, which needs none.
	Bit int
}

// Plan is the compile-time synchronization plan of one loop nest under the
// data-oriented schemes.
type Plan struct {
	Nest *loop.Nest
	// Elems lists every touched element's accesses in serial execution
	// order; Order lists elements deterministically.
	Elems map[Elem][]*Access
	Order []Elem
	// names[i] renders Order[i]: op tags name elements, and a plan is
	// built once per workload while its ops are built on every run.
	names []string

	// refs holds every statement instance's accesses in RefSlot order;
	// at[(lpid-1)*len(nrefs)+pos] is where instance (lpid, pos) starts,
	// or -1 when a branch skipped it, and nrefs[pos] is its count.
	refs  []*Access
	at    []int32
	nrefs []int
	// verBase[i] is where element i's versions start in a VersionStore's
	// dense table (version 0, then one per write); verBase[len(Order)]
	// is the table's size.
	verBase []int
	// bitWrites lists the write accesses in Bit order, for naming bits.
	bitWrites []*Access
	foot      Footprint

	// arena chunk-allocates Access records: plan building touches every
	// reference of the whole iteration space, and one heap object per
	// access dominates BuildPlan's cost at sweep scale.
	arena []Access
}

// Accesses returns the accesses of statement position pos in iteration
// lpid in RefSlot order (writes, then reads), or nil when a branch skipped
// the statement in that iteration. The slice is the plan's; callers must
// not modify it.
func (p *Plan) Accesses(lpid int64, pos int) []*Access {
	start := p.at[(lpid-1)*int64(len(p.nrefs))+int64(pos)]
	if start < 0 {
		return nil
	}
	return p.refs[start : int(start)+p.nrefs[pos]]
}

func (p *Plan) newAccess(id AccessID, e Elem, kind deps.Access) *Access {
	if len(p.arena) == 0 {
		p.arena = make([]Access, 512)
	}
	a := &p.arena[0]
	p.arena = p.arena[1:]
	a.ID, a.Elem, a.Kind = id, e, kind
	return a
}

// BuildPlan enumerates the whole iteration space and assigns tickets,
// epochs and copies.
func BuildPlan(n *loop.Nest) *Plan {
	stmts := n.Stmts()
	pos := make(map[*deps.Stmt]int, len(stmts))
	refs := 0
	nrefs := make([]int, len(stmts))
	for i, s := range stmts {
		pos[s] = i
		nrefs[i] = len(s.Reads) + len(s.Writes)
		refs += nrefs[i]
	}
	total := n.Iterations()
	// Presize for the branchless case (every statement every iteration);
	// branchy nests simply overshoot a little.
	p := &Plan{Nest: n, Elems: make(map[Elem][]*Access), nrefs: nrefs,
		refs: make([]*Access, 0, int(total)*refs), at: make([]int32, int(total)*len(stmts))}
	for i := range p.at {
		p.at[i] = -1
	}
	idx := make([]int64, n.Depth())
	var body []*deps.Stmt
	for lpid := int64(1); lpid <= total; lpid++ {
		idx = n.IndexInto(idx, lpid)
		body = n.FlatBodyInto(body, idx)
		for _, s := range body {
			sp := pos[s]
			start := len(p.refs)
			p.at[(lpid-1)*int64(len(stmts))+int64(sp)] = int32(start)
			p.refs = slices.Grow(p.refs, nrefs[sp])[:start+nrefs[sp]]
			// Execution order within a statement: the right-hand side's
			// reads happen before the left-hand side's write (so a
			// statement like A[I] = f(A[I]) reads the old value). RefSlot
			// numbering stays writes-first (0..W-1), reads after — it is
			// an identifier, not an order.
			for k, r := range s.Reads {
				p.record(AccessID{lpid, sp, len(s.Writes) + k}, r, deps.Read, idx)
			}
			for k, w := range s.Writes {
				p.record(AccessID{lpid, sp, k}, w, deps.Write, idx)
			}
		}
	}
	p.assign()
	return p
}

func (p *Plan) record(id AccessID, r deps.Ref, kind deps.Access, idx []int64) {
	if len(r.Index) > 3 {
		panic("dataorient: more than 3 subscript dimensions")
	}
	e := Elem{Array: r.Array, Dims: len(r.Index)}
	for d, ix := range r.Index {
		e.C[d] = ix.Eval(idx)
	}
	a := p.newAccess(id, e, kind)
	p.Elems[e] = append(p.Elems[e], a)
	p.refs[len(p.refs)-p.nrefs[id.StmtPos]+id.RefSlot] = a
}

// assign computes tickets (Fig 3.1a) and version epochs per element, then
// numbers elements, versions and full/empty bits in plan order. The
// per-element access lists are already in serial execution order because
// BuildPlan scans iterations and body positions in order.
func (p *Plan) assign() {
	for e, seq := range p.Elems {
		var count, lastWriteTicket, writes int64
		lastWriteTicket = -1
		var readersOfEpoch []*Access
		closeEpoch := func(w *Access) {
			if w != nil {
				w.Readers = len(readersOfEpoch)
			}
			readersOfEpoch = readersOfEpoch[:0]
		}
		var lastWrite *Access
		for _, a := range seq {
			switch a.Kind {
			case deps.Write:
				closeEpoch(lastWrite)
				a.Ticket = count
				a.Epoch = writes // creates version writes+1
				lastWrite = a
				lastWriteTicket = count
				writes++
			case deps.Read:
				a.Ticket = lastWriteTicket + 1
				a.Epoch = writes // reads the most recent version
				a.CopyIdx = len(readersOfEpoch)
				readersOfEpoch = append(readersOfEpoch, a)
			}
			count++
		}
		closeEpoch(lastWrite)
		_ = e
	}
	p.Order = make([]Elem, 0, len(p.Elems))
	for e := range p.Elems {
		p.Order = append(p.Order, e)
	}
	sort.Slice(p.Order, func(i, j int) bool { return lessElem(p.Order[i], p.Order[j]) })
	p.names = make([]string, len(p.Order))
	p.verBase = make([]int, len(p.Order)+1)
	bit, off := 0, 0
	for i, e := range p.Order {
		p.names[i] = e.String()
		p.verBase[i] = off
		off++ // version 0: the initial value
		var last *Access
		for _, a := range p.Elems[e] {
			a.ElemIdx = i
			switch {
			case a.Kind == deps.Write:
				copies := max(a.Readers, 1)
				a.Bit = bit
				bit += copies
				last = a
				p.bitWrites = append(p.bitWrites, a)
				p.foot.Versions++
				p.foot.Copies += int64(copies)
				off++
			case a.Epoch > 0:
				a.Bit = last.Bit + a.CopyIdx
			default:
				a.Bit = -1
			}
		}
	}
	p.verBase[len(p.Order)] = off
	p.foot.Keys = int64(len(p.Order))
	p.foot.InitOps = p.foot.Keys
	p.foot.Bits = int64(bit)
}

func lessElem(a, b Elem) bool {
	if a.Array != b.Array {
		return a.Array < b.Array
	}
	if a.Dims != b.Dims {
		return a.Dims < b.Dims
	}
	for d := 0; d < a.Dims; d++ {
		if a.C[d] != b.C[d] {
			return a.C[d] < b.C[d]
		}
	}
	return false
}

// Footprint summarizes the storage and initialization cost of the plan,
// the paper's main complaint about data-oriented schemes.
type Footprint struct {
	// Keys is the number of reference-based keys (one per touched element)
	// and InitOps the writes needed to initialize them.
	Keys, InitOps int64
	// Versions is the number of renamed locations the instance-based
	// scheme allocates; Copies the total consumable data copies written
	// (>= Versions); Bits the full/empty bits.
	Versions, Copies, Bits int64
}

// Footprint returns the plan's storage accounting.
func (p *Plan) Footprint() Footprint { return p.foot }

// FinalKey returns the key value element e holds after the loop (its total
// access count) — what a data-oriented runtime must reset before reuse.
func (p *Plan) FinalKey(e Elem) int64 { return int64(len(p.Elems[e])) }
