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
	// ByID resolves an access from its location, for code generation.
	ByID map[AccessID]*Access

	// arena chunk-allocates Access records: plan building touches every
	// reference of the whole iteration space, and one heap object per
	// access dominates BuildPlan's cost at sweep scale.
	arena []Access
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
	for i, s := range stmts {
		pos[s] = i
		refs += len(s.Reads) + len(s.Writes)
	}
	total := n.Iterations()
	// Presize for the branchless case (every statement every iteration);
	// branchy nests simply overshoot a little.
	est := int(total) * refs
	p := &Plan{Nest: n, Elems: make(map[Elem][]*Access), ByID: make(map[AccessID]*Access, est)}
	for lpid := int64(1); lpid <= total; lpid++ {
		idx := n.IndexOf(lpid)
		for _, s := range n.FlatBody(idx) {
			sp := pos[s]
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
	p.ByID[id] = a
}

// assign computes tickets (Fig 3.1a) and version epochs per element. The
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
	for i, e := range p.Order {
		p.names[i] = e.String()
	}
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

// Footprint computes the plan's storage accounting.
func (p *Plan) Footprint() Footprint {
	var f Footprint
	f.Keys = int64(len(p.Elems))
	f.InitOps = f.Keys
	for _, e := range p.Order {
		for _, a := range p.Elems[e] {
			if a.Kind == deps.Write {
				f.Versions++
				c := int64(a.Readers)
				if c == 0 {
					c = 1
				}
				f.Copies += c
				f.Bits += c
			}
		}
	}
	return f
}

// FinalKey returns the key value element e holds after the loop (its total
// access count) — what a data-oriented runtime must reset before reuse.
func (p *Plan) FinalKey(e Elem) int64 { return int64(len(p.Elems[e])) }
