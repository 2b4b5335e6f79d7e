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
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/expr"
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
	return string(e.appendName(make([]byte, 0, len(e.Array)+8)))
}

func (e Elem) appendName(b []byte) []byte {
	b = append(b, e.Array...)
	b = append(b, '[')
	for d := 0; d < e.Dims; d++ {
		if d > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, e.C[d], 10)
	}
	return append(b, ']')
}

// compareElem orders elements by array name, rank, then coordinates: the
// plan's Order.
func compareElem(a, b Elem) int {
	if c := strings.Compare(a.Array, b.Array); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dims, b.Dims); c != 0 {
		return c
	}
	for d := 0; d < a.Dims; d++ {
		if c := cmp.Compare(a.C[d], b.C[d]); c != 0 {
			return c
		}
	}
	return 0
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
	Kind deps.Access
	// ElemIdx is the accessed element's position in the plan's Order: the
	// index of its key, and of its renamed versions in a VersionStore.
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
	// Order lists every touched element by array name, rank and
	// coordinates; an element's index in it is its id (Access.ElemIdx).
	Order []Elem
	// names renders every element of Order back to back: element i's
	// name is names[nameOff[i]:nameOff[i+1]]. Op tags name elements, and a
	// plan is built once per workload while its ops are built on every run.
	names   string
	nameOff []int32

	// accs is the flat access table: every statement instance's accesses,
	// instances in serial order, each instance's in RefSlot order.
	// at[(lpid-1)*len(nrefs)+pos] is where instance (lpid, pos) starts, or
	// -1 when a branch skipped it, and nrefs[pos] is its count.
	accs  []Access
	at    []int32
	nrefs []int32
	// seq lists each element's accesses in serial execution order:
	// element i's are seq[seqOff[i]:seqOff[i+1]].
	seq    []*Access
	seqOff []int32
	// verBase[i] is where element i's versions start in a VersionStore's
	// dense table (version 0, then one per write); verBase[len(Order)]
	// is the table's size.
	verBase []int
	// bitWrites lists the write accesses in Bit order, for naming bits.
	bitWrites []*Access
	foot      Footprint
}

// Accesses returns the accesses of statement position pos in iteration
// lpid in RefSlot order (writes, then reads), or nil when a branch skipped
// the statement in that iteration. The slice is the plan's; callers must
// not modify it.
func (p *Plan) Accesses(lpid int64, pos int) []Access {
	start := p.at[(lpid-1)*int64(len(p.nrefs))+int64(pos)]
	if start < 0 {
		return nil
	}
	return p.accs[start : start+p.nrefs[pos] : start+p.nrefs[pos]]
}

// Seq returns element ei's accesses (ei is its index in Order) in serial
// execution order. The slice is the plan's; callers must not modify it.
func (p *Plan) Seq(ei int) []*Access { return p.seq[p.seqOff[ei]:p.seqOff[ei+1]] }

// Lookup returns element e's index in Order, false when the nest never
// touches it.
func (p *Plan) Lookup(e Elem) (int, bool) {
	return slices.BinarySearchFunc(p.Order, e, compareElem)
}

// name renders element ei.
func (p *Plan) name(ei int) string { return p.names[p.nameOff[ei]:p.nameOff[ei+1]] }

// planArray is one (array, rank) pair the nest references, with the box
// of coordinates its subscripts take over the nest's rectangular index
// space: dimension d spans lo[d]..hi[d].
type planArray struct {
	name   string
	dims   int
	lo, hi [3]int64
	// base is the array's first dense element id and stride[d] the id
	// step of coordinate d (row-major), when the plan numbers densely.
	base   int64
	stride [3]int64
}

// elemKey is an element as the sparse numbering keys it: the array's
// index in the plan's sorted arrays and the coordinates.
type elemKey struct {
	arr int32
	c   [3]int64
}

// planBuilder is BuildPlan's scratch.
type planBuilder struct {
	p      *Plan
	stmts  []*deps.Stmt
	writes int         // write accesses in the table
	arrays []planArray // sorted by name, then rank
	// refs compiles every statement's references in RefSlot order:
	// position pos's are refs[refAt[pos]:refAt[pos]+nrefs[pos]].
	refs  []planRef
	refAt []int32
	// dense numbers an element by its offset in its array's box, so that
	// ascending ids are Order; otherwise ids number elements as first
	// seen (ids, keys) and Order sorts them.
	dense bool
	size  int64
	ids   map[elemKey]int32
	keys  []elemKey
}

// planRef is one reference compiled against the nest's arrays.
type planRef struct {
	arr int32
	ix  []expr.Affine
}

// BuildPlan enumerates the whole iteration space and assigns tickets,
// epochs and copies.
//
// Every access is numbered by its element without hashing: each element
// gets an id from its coordinates (its offset in its array's bounding box,
// which makes ascending ids the plan's Order), the accesses land in one
// flat table and a counting sort by element id gives every element's
// sequence. A nest whose subscripts touch only a sparse part of their box
// numbers elements through one map of fixed-size keys instead.
func BuildPlan(n *loop.Nest) *Plan { return buildPlan(n, true) }

// buildPlan is BuildPlan, numbering elements sparsely unless dense is
// allowed and the nest qualifies.
func buildPlan(n *loop.Nest, dense bool) *Plan {
	b := newPlanBuilder(n, dense)
	b.enumerate()
	b.sequence(b.number())
	b.p.assign(b.writes)
	b.p.render()
	return b.p
}

// newPlanBuilder interns the nest's arrays, compiles its references and
// decides how elements are numbered.
func newPlanBuilder(n *loop.Nest, dense bool) *planBuilder {
	stmts := n.Stmts()
	b := &planBuilder{p: &Plan{Nest: n, nrefs: make([]int32, len(stmts))}, stmts: stmts, refAt: make([]int32, len(stmts))}
	nrefs := 0
	for pos, s := range stmts {
		b.p.nrefs[pos] = int32(len(s.Writes) + len(s.Reads))
		b.refAt[pos] = int32(nrefs)
		nrefs += len(s.Writes) + len(s.Reads)
		for _, refs := range [2][]deps.Ref{s.Writes, s.Reads} {
			for _, r := range refs {
				if len(r.Index) > 3 {
					panic("dataorient: more than 3 subscript dimensions")
				}
				if b.array(r) < 0 {
					a := planArray{name: r.Array, dims: len(r.Index)}
					for d := range a.lo {
						a.lo[d], a.hi[d] = math.MaxInt64, math.MinInt64
					}
					b.arrays = append(b.arrays, a)
				}
			}
		}
	}
	slices.SortFunc(b.arrays, func(x, y planArray) int {
		return compareElem(Elem{Array: x.name, Dims: x.dims}, Elem{Array: y.name, Dims: y.dims})
	})

	// Compile the references and grow each array's box over their spans.
	boxed := dense
	b.refs = make([]planRef, 0, nrefs)
	for _, s := range stmts {
		for _, refs := range [2][]deps.Ref{s.Writes, s.Reads} {
			for _, r := range refs {
				ai := b.array(r)
				b.refs = append(b.refs, planRef{arr: int32(ai), ix: r.Index})
				a := &b.arrays[ai]
				for d, ix := range r.Index {
					lo, hi, ok := span(ix, n.Indexes)
					boxed = boxed && ok
					a.lo[d], a.hi[d] = min(a.lo[d], lo), max(a.hi[d], hi)
				}
			}
		}
	}

	// Number densely when the boxes hold at most a few ids per access: a
	// box is then no larger than the access table.
	limit := 4*n.Iterations()*int64(nrefs) + 64
	for i := range b.arrays {
		a := &b.arrays[i]
		a.base = b.size
		size := int64(1)
		for d := a.dims - 1; d >= 0; d-- {
			a.stride[d] = size
			ext := a.hi[d] - a.lo[d] + 1
			if ext <= 0 || ext > limit || size > limit/ext {
				boxed = false
				break
			}
			size *= ext
		}
		b.size += size
		if b.size > limit {
			boxed = false
		}
	}
	b.dense = boxed
	if !b.dense {
		b.ids = make(map[elemKey]int32)
	}
	return b
}

// array returns the index of r's (array, rank) pair in b.arrays, -1 if
// absent.
func (b *planBuilder) array(r deps.Ref) int {
	for i := range b.arrays {
		if b.arrays[i].name == r.Array && b.arrays[i].dims == len(r.Index) {
			return i
		}
	}
	return -1
}

// span returns the least and greatest value ix takes over the rectangular
// index space, false when the constant, a coefficient or a bound exceeds
// 2^24 in magnitude, which keeps every sum far from overflowing.
func span(ix expr.Affine, indexes []loop.Index) (lo, hi int64, ok bool) {
	const big = 1 << 24
	lo, hi = ix.Const, ix.Const
	if ix.Const > big || ix.Const < -big {
		return 0, 0, false
	}
	for k, c := range ix.Coef {
		x1, x2 := indexes[k].Lo, indexes[k].Hi
		if c > big || c < -big || x1 < -big || x2 > big {
			return 0, 0, false
		}
		if c < 0 {
			x1, x2 = x2, x1
		}
		lo += c * x1
		hi += c * x2
	}
	return lo, hi, true
}

// enumerate fills the access table in serial instance order, each access
// holding its element's raw id (dense offset or first-seen number) in
// ElemIdx until number maps it into Order.
func (b *planBuilder) enumerate() {
	p, n, stmts := b.p, b.p.Nest, b.stmts
	perIter := int64(0)
	for _, c := range p.nrefs {
		perIter += int64(c)
	}
	total := n.Iterations()
	// Presize for the branchless case (every statement every iteration);
	// branchy nests simply overshoot a little.
	p.accs = make([]Access, 0, total*perIter)
	p.at = make([]int32, total*int64(len(stmts)))
	idx := make([]int64, n.Depth())
	var body []*deps.Stmt
	for lpid := int64(1); lpid <= total; lpid++ {
		idx = n.IndexInto(idx, lpid)
		body = n.FlatBodyInto(body, idx)
		row := p.at[(lpid-1)*int64(len(stmts)) : lpid*int64(len(stmts))]
		for i := range row {
			row[i] = -1
		}
		// The flat body is a subsequence of Stmts: walk both in step to
		// find each statement's position.
		pos := 0
		for _, s := range body {
			for stmts[pos] != s {
				pos++
			}
			row[pos] = int32(len(p.accs))
			nw := len(s.Writes)
			b.writes += nw
			for k, r := range b.refs[b.refAt[pos] : b.refAt[pos]+p.nrefs[pos]] {
				kind := deps.Read
				if k < nw {
					kind = deps.Write
				}
				p.accs = append(p.accs, Access{ID: AccessID{lpid, pos, k}, Kind: kind, ElemIdx: b.rawID(r, idx)})
			}
			pos++
		}
	}
}

// rawID numbers the element reference r touches at index vector idx.
func (b *planBuilder) rawID(r planRef, idx []int64) int {
	a := &b.arrays[r.arr]
	if b.dense {
		id := a.base
		for d, ix := range r.ix {
			id += (ix.Eval(idx) - a.lo[d]) * a.stride[d]
		}
		return int(id)
	}
	k := elemKey{arr: r.arr}
	for d, ix := range r.ix {
		k.c[d] = ix.Eval(idx)
	}
	id, ok := b.ids[k]
	if !ok {
		id = int32(len(b.keys))
		b.ids[k] = id
		b.keys = append(b.keys, k)
	}
	return int(id)
}

// number builds Order and the sequence offsets from the raw ids in the
// access table and returns the map from raw id to element index.
func (b *planBuilder) number() []int32 {
	p := b.p
	raws := int(b.size)
	if !b.dense {
		raws = len(b.keys)
	}
	// idOf first counts each raw id's accesses, then maps it to its
	// element index.
	idOf := make([]int32, raws)
	for i := range p.accs {
		idOf[p.accs[i].ElemIdx]++
	}
	if b.dense {
		elems := 0
		for _, c := range idOf {
			if c > 0 {
				elems++
			}
		}
		p.Order = make([]Elem, 0, elems)
		p.seqOff = make([]int32, 1, elems+1)
		ai := 0
		for raw, c := range idOf {
			if c == 0 {
				continue
			}
			for ai+1 < len(b.arrays) && int64(raw) >= b.arrays[ai+1].base {
				ai++
			}
			a := &b.arrays[ai]
			e := Elem{Array: a.name, Dims: a.dims}
			off := int64(raw) - a.base
			for d := 0; d < a.dims; d++ {
				e.C[d] = a.lo[d] + off/a.stride[d]
				off %= a.stride[d]
			}
			idOf[raw] = int32(len(p.Order))
			p.Order = append(p.Order, e)
			p.seqOff = append(p.seqOff, p.seqOff[len(p.seqOff)-1]+c)
		}
		return idOf
	}
	perm := make([]int32, len(b.keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(x, y int32) int {
		kx, ky := &b.keys[x], &b.keys[y]
		if c := cmp.Compare(kx.arr, ky.arr); c != 0 {
			return c
		}
		return slices.Compare(kx.c[:], ky.c[:])
	})
	p.Order = make([]Elem, len(perm))
	p.seqOff = make([]int32, len(perm)+1)
	for ei, raw := range perm {
		k := &b.keys[raw]
		p.Order[ei] = Elem{Array: b.arrays[k.arr].name, Dims: b.arrays[k.arr].dims, C: k.c}
		p.seqOff[ei+1] = p.seqOff[ei] + idOf[raw]
		idOf[raw] = int32(ei)
	}
	return idOf
}

// sequence maps every access's raw id to its element index through idOf
// and counting-sorts the access table into per-element sequences in serial
// execution order. Within a statement instance the right-hand side's reads
// happen before the left-hand side's write (so a statement like
// A[I] = f(A[I]) reads the old value), although RefSlot numbering puts
// writes first: it is an identifier, not an order.
func (b *planBuilder) sequence(idOf []int32) {
	p := b.p
	p.seq = make([]*Access, len(p.accs))
	next := slices.Clone(p.seqOff[:len(p.Order)])
	place := func(a *Access) {
		a.ElemIdx = int(idOf[a.ElemIdx])
		p.seq[next[a.ElemIdx]] = a
		next[a.ElemIdx]++
	}
	for i, start := range p.at {
		if start < 0 {
			continue
		}
		pos := i % len(b.stmts)
		accs := p.accs[start : start+p.nrefs[pos]]
		nw := len(b.stmts[pos].Writes)
		for k := nw; k < len(accs); k++ {
			place(&accs[k])
		}
		for k := 0; k < nw; k++ {
			place(&accs[k])
		}
	}
}

// assign computes tickets (Fig 3.1a) and version epochs per element, then
// numbers its versions and full/empty bits, elements in plan order.
func (p *Plan) assign(writes int) {
	p.verBase = make([]int, len(p.Order)+1)
	p.bitWrites = make([]*Access, 0, writes)
	bit, off := 0, 0
	for ei := range p.Order {
		seq := p.Seq(ei)
		var count, writes int64
		lastWriteTicket := int64(-1)
		var lastWrite *Access
		readers := 0
		for _, a := range seq {
			switch a.Kind {
			case deps.Write:
				if lastWrite != nil {
					lastWrite.Readers = readers
				}
				readers = 0
				a.Ticket = count
				a.Epoch = writes // creates version writes+1
				lastWrite = a
				lastWriteTicket = count
				writes++
			case deps.Read:
				a.Ticket = lastWriteTicket + 1
				a.Epoch = writes // reads the most recent version
				a.CopyIdx = readers
				readers++
			}
			count++
		}
		if lastWrite != nil {
			lastWrite.Readers = readers
		}

		p.verBase[ei] = off
		off++ // version 0: the initial value
		var last *Access
		for _, a := range seq {
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

// render writes every element's name into one buffer, sized exactly.
func (p *Plan) render() {
	size := 0
	for _, e := range p.Order {
		size += len(e.Array) + 2 + max(e.Dims-1, 0)
		for d := 0; d < e.Dims; d++ {
			for v := e.C[d]; ; v /= 10 {
				size++
				if v > -10 && v < 10 {
					break
				}
			}
			if e.C[d] < 0 {
				size++
			}
		}
	}
	buf := make([]byte, 0, size)
	p.nameOff = make([]int32, len(p.Order)+1)
	for i, e := range p.Order {
		buf = e.appendName(buf)
		p.nameOff[i+1] = int32(len(buf))
	}
	p.names = string(buf)
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

// FinalKey returns the key value element ei (its index in Order) holds
// after the loop (its total access count) — what a data-oriented runtime
// must reset before reuse.
func (p *Plan) FinalKey(ei int) int64 { return int64(p.seqOff[ei+1] - p.seqOff[ei]) }
