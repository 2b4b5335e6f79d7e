package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/sim"
)

// Static verifies a synchronization program against its nest's dependence
// set. It materializes the per-iteration programs, builds the
// happens-before graph (program order within an iteration, plus a release
// edge from each wait's releasing signal(s) to the wait), topologically
// sorts it (failure = deadlock certificate), computes a vector clock per
// node, and checks every realizable dependence-arc instance pair against
// the clocks. See the package comment for the soundness obligations that
// are checked along the way.
func Static(sp *codegen.SyncProgram, opt Options) *Report {
	rep := &Report{Workload: sp.Workload.Name, Scheme: sp.Scheme, Iterations: sp.Iters}
	w := sp.Iters
	if mx := opt.maxIters(); w > mx {
		w = mx
		rep.Truncated = true
	}
	rep.Analyzed = w

	c := &checker{sp: sp, rep: rep, w: w, sites: make(map[sim.Label]int), findIdx: make(map[findKey]int)}
	c.materialize()
	c.classifyVars()
	c.buildReleases()
	if !c.sortAndClock() {
		return rep // cycle: clock-dependent checks are meaningless
	}
	c.checkObligations()
	c.checkChains()
	c.checkArcs()
	c.reportRedundant()
	return rep
}

// sigRec is one signal on a variable: node id, producing iteration,
// position within the iteration, and the signalled value. A conditional
// signal (the improved mark_PC) may not fire, and fires only when a value
// of at least guard is visible.
type sigRec struct {
	id    int
	iter  int64
	k     int32
	val   int64
	cond  bool
	guard int64
}

type waitRec struct {
	id int
	v  int
	t  int64
}

type varInfo struct {
	plain, accum, opaque bool
	bad                  bool // excluded from edge construction (reported)
}

// findKey identifies a hard finding for deduplication: its kind, up to
// two numbers and, for a wait's finding, the wait's site.
type findKey struct {
	kind string
	a, b int
	site sim.Label
}

// siteStat tallies the waits at one site, sample the first of them.
type siteStat struct {
	site                     sim.Label
	sample, total, redundant int
}

// obligation: the conditional releaser r must be in the past of fallback
// candidate cand, else a non-firing conditional leaves the wait unsound.
type obligation struct {
	v    int
	r    sigRec
	cand sigRec
}

// tick is one entry of a vector clock: the first k steps of iteration
// iter happen before the clock's node. A clock is a slice of ticks in
// ascending iteration order; an iteration without a tick has k = 0.
// Analyzed iterations are materialized, so their numbers fit an int32.
type tick struct{ iter, k int32 }

// clockRef locates a stored clock: n ticks at off in arena block blk.
type clockRef struct{ blk, off, n int32 }

// span is a run of n entries at off of a flat table.
type span struct{ off, n int32 }

// The tick arena's first block holds arenaFirst ticks; each later block
// doubles the one before, up to arenaMax (or the clock it must hold).
const (
	arenaFirst = 1 << 10
	arenaMax   = 1 << 16
)

// checker holds one verification's tables. Nodes are the analyzed ops,
// numbered iteration by iteration: every sync op, and the compute op of
// each statement execution (Op.Stmt set). Every per-node table is a slice
// indexed by node id and every per-variable table a slice indexed by
// variable id.
type checker struct {
	sp  *codegen.SyncProgram
	rep *Report
	w   int64 // analyzed iterations

	ops      []sim.Op // every node's op, by node id
	base     []int    // node-id offset per iteration; base[i+1]-base[i] nodes
	total    int
	iterOf   []int32
	kOf      []int32
	nStmts   int
	stmtNode []int32 // [(iter-1)*nStmts+stmtPos] -> node id, -1 when not executed

	// sigBuf[sigStart[v]:sigStart[v+1]] are variable v's signals, sorted
	// by (value, iter, k).
	sigStart []int32
	sigBuf   []sigRec
	vinfo    []varInfo // by variable
	waits    []waitRec
	rel      []span // by node: a wait's releasing signals, in sigBuf
	// succ[succStart[id]:succStart[id+1]] are the waits signal node id
	// releases, in ascending node id.
	succStart []int32
	succ      []int32

	obls    []obligation
	oblSeen []bool // by sigBuf index of a conditional minimal candidate

	// Clocks are shared by segments: a node that is neither its
	// iteration's first step nor a wait with releasers has its
	// predecessor's clock with its own iteration's tick advanced by one,
	// so only segment heads store a clock. clock[id] is the stored clock
	// of id's segment, in which the tick of id's own iteration reads as
	// kOf[id]+1 (clockAt). Stored clocks live in an append-only arena of
	// blocks, so storing one never moves another.
	arena    [][]tick
	clock    []clockRef
	cur, tmp []tick // scratch clocks of the head being computed

	sites     map[sim.Label]int // wait site -> index in siteStats
	siteStats []siteStat
	findIdx   map[findKey]int // finding dedup key -> index in rep.Findings
	buf       []byte          // tag scratch
}

func (c *checker) vname(v int) string { return c.sp.Machine.VarName(sim.VarID(v)) }

// tagOf renders node id's tag.
func (c *checker) tagOf(id int) string {
	c.buf = c.sp.AppendTag(c.buf[:0], c.ops[id])
	return string(c.buf)
}

// signal returns the value node op publishes if it is a signal: a write's
// value, or the post value an accumulating increment is stamped with. An
// increment without one is opaque, not a signal.
func signal(op *sim.Op) (int64, bool) {
	switch op.Kind {
	case sim.OpWrite, sim.OpWriteIf:
		return op.Value, true
	case sim.OpRMW:
		return op.Post, op.HasPost
	}
	return 0, false
}

// addHard appends a hard finding, deduplicating by key: repeated instances
// of the same defect (one per iteration) fold into a count.
func (c *checker) addHard(key findKey, f Finding) {
	if i, ok := c.findIdx[key]; ok {
		c.rep.Findings[i].Pairs++
		return
	}
	f.Pairs = 1
	c.findIdx[key] = len(c.rep.Findings)
	c.rep.Findings = append(c.rep.Findings, f)
}

func (c *checker) materialize() {
	c.nStmts = len(c.sp.Workload.Nest.Stmts())
	c.base = make([]int, c.w+2)
	// A program may overwrite all of its dst, so each iteration is built
	// in one scratch buffer and its nodes are copied out of it.
	var prog []sim.Op
	for i := int64(1); i <= c.w; i++ {
		prog = c.sp.At(prog[:0], i)
		if i == 1 {
			// Iterations emit programs of about one size.
			c.ops = make([]sim.Op, 0, len(prog)*int(c.w))
		}
		for k := range prog {
			if op := &prog[k]; op.Kind != sim.OpCompute || op.Stmt != 0 {
				c.ops = append(c.ops, *op)
			}
		}
		c.base[i+1] = len(c.ops)
	}
	c.total = len(c.ops)
	c.rep.Nodes = c.total
	c.iterOf = make([]int32, c.total)
	c.kOf = make([]int32, c.total)
	c.stmtNode = make([]int32, int(c.w)*c.nStmts)
	for i := range c.stmtNode {
		c.stmtNode[i] = -1
	}
	// Lay the signals out by variable: count, take prefix sums, fill.
	nv := c.sp.Machine.VarCount()
	c.sigStart = make([]int32, nv+1)
	nWaits := 0
	for i := range c.ops {
		if op := &c.ops[i]; op.Kind == sim.OpWait {
			nWaits++
		} else if _, ok := signal(op); ok {
			c.sigStart[op.Var+1]++
		}
	}
	for v := 1; v <= nv; v++ {
		c.sigStart[v] += c.sigStart[v-1]
	}
	c.sigBuf = make([]sigRec, c.sigStart[nv])
	c.waits = make([]waitRec, 0, nWaits)
	c.vinfo = make([]varInfo, nv)
	for i := int64(1); i <= c.w; i++ {
		row := c.stmtNode[int(i-1)*c.nStmts : int(i)*c.nStmts]
		for id := c.base[i]; id < c.base[i+1]; id++ {
			op := &c.ops[id]
			k := int32(id - c.base[i])
			c.iterOf[id] = int32(i)
			c.kOf[id] = k
			switch val, ok := signal(op); {
			case op.Kind == sim.OpCompute:
				row[op.Stmt-1] = int32(id)
			case op.Kind == sim.OpWait:
				c.rep.Waits++
				c.waits = append(c.waits, waitRec{id: id, v: int(op.Var), t: op.Value})
			case !ok:
				c.vinfo[op.Var].opaque = true
			default:
				c.rep.Signals++
				cond := op.Kind == sim.OpWriteIf
				c.sigBuf[c.sigStart[op.Var]] = sigRec{id: id, iter: i, k: k, val: val, cond: cond, guard: op.CondGE}
				c.sigStart[op.Var]++
				if vi := &c.vinfo[op.Var]; op.Kind == sim.OpRMW {
					vi.accum = true
				} else {
					vi.plain = true
				}
			}
		}
	}
	// Filling advanced each start to the next variable's.
	copy(c.sigStart[1:], c.sigStart[:nv])
	c.sigStart[0] = 0
}

// sigs returns variable v's signals.
func (c *checker) sigs(v int) []sigRec { return c.sigBuf[c.sigStart[v]:c.sigStart[v+1]] }

// rels returns the signals releasing node id, a wait.
func (c *checker) rels(id int) []sigRec {
	r := c.rel[id]
	return c.sigBuf[r.off : r.off+r.n]
}

// classifyVars sorts every variable's signals and reports the variables
// outside the release model, in ascending variable id.
func (c *checker) classifyVars() {
	for v := range c.vinfo {
		slices.SortFunc(c.sigs(v), func(a, b sigRec) int {
			return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.iter, b.iter), cmp.Compare(a.k, b.k))
		})
	}
	for v := range c.vinfo {
		vi := &c.vinfo[v]
		switch {
		case vi.opaque:
			vi.bad = true
			c.addHard(findKey{kind: "opaque", a: v}, Finding{
				Class: Unanalyzable, Var: c.vname(v),
				Summary: fmt.Sprintf("variable %s is updated by an atomic op without a protocol-guaranteed value; waits on it cannot be verified", c.vname(v)),
			})
		case vi.plain && vi.accum:
			vi.bad = true
			c.addHard(findKey{kind: "mixed", a: v}, Finding{
				Class: Unanalyzable, Var: c.vname(v),
				Summary: fmt.Sprintf("variable %s mixes plain writes and atomic increments; release semantics are undefined", c.vname(v)),
			})
		case vi.plain:
			ss := c.sigs(v)
			for j := 0; j+1 < len(ss); j++ {
				if ss[j].val == ss[j+1].val && ss[j].iter != ss[j+1].iter {
					vi.bad = true
					c.addHard(findKey{kind: "ambig", a: v}, Finding{
						Class: AmbiguousSignals, Var: c.vname(v),
						Summary: fmt.Sprintf("iterations %d and %d both signal %s=%d; wait releasers are not statically determined",
							ss[j].iter, ss[j+1].iter, c.vname(v), ss[j].val),
						Detail: fmt.Sprintf("%s / %s", c.tagOf(ss[j].id), c.tagOf(ss[j+1].id)),
					})
					break
				}
			}
		}
	}
}

func (c *checker) buildReleases() {
	m := c.sp.Machine
	c.rel = make([]span, c.total)
	for _, w := range c.waits {
		vi := c.vinfo[w.v]
		if vi.bad {
			continue
		}
		init := m.VarValue(sim.VarID(w.v))
		ss := c.sigs(w.v)
		first := c.sigStart[w.v]
		var rel span
		if vi.accum {
			// Counting semantics: the key counts completed increments, so
			// reaching t requires the t-init increments whose protocol
			// values are <= t — all of them, collectively.
			need := w.t - init
			if need <= 0 {
				continue // pre-satisfied
			}
			cnt := sort.Search(len(ss), func(i int) bool { return ss[i].val > w.t })
			if int64(cnt) < need {
				c.addHard(findKey{kind: "unrel", a: w.v, site: m.SiteOf(c.ops[w.id].Tag)}, Finding{
					Class: UnreleasableWait, Var: c.vname(w.v),
					Summary: fmt.Sprintf("wait %s needs %d increments of %s but the program performs only %d at or below the threshold",
						c.tagOf(w.id), need, c.vname(w.v), cnt),
				})
				continue
			}
			if int64(cnt) > need {
				c.addHard(findKey{kind: "overcnt", a: w.v, site: m.SiteOf(c.ops[w.id].Tag)}, Finding{
					Class: Unanalyzable, Var: c.vname(w.v),
					Summary: fmt.Sprintf("wait %s: %d increments can reach threshold %d of %s; which %d complete first is not determined",
						c.tagOf(w.id), cnt, w.t, c.vname(w.v), need),
				})
				continue
			}
			rel = span{first, int32(cnt)}
		} else {
			if init >= w.t {
				continue // pre-satisfied by the initial value
			}
			lo := sort.Search(len(ss), func(i int) bool { return ss[i].val >= w.t })
			if lo == len(ss) {
				c.addHard(findKey{kind: "unrel", a: w.v, site: m.SiteOf(c.ops[w.id].Tag)}, Finding{
					Class: UnreleasableWait, Var: c.vname(w.v),
					Summary: fmt.Sprintf("no signal on %s ever reaches %d required by %s",
						c.vname(w.v), w.t, c.tagOf(w.id)),
				})
				continue
			}
			r := ss[lo]
			if r.cond {
				// The minimal candidate may not fire. Sound release still
				// holds if every later candidate through the first
				// unconditional one has r in its past: whichever signal
				// actually releases the wait then carries r's effects.
				j := lo + 1
				for j < len(ss) && ss[j].cond {
					j++
				}
				if j == len(ss) {
					c.addHard(findKey{kind: "condonly", a: w.v, site: m.SiteOf(c.ops[w.id].Tag)}, Finding{
						Class: UnreleasableWait, Var: c.vname(w.v),
						Summary: fmt.Sprintf("wait %s can be released only by conditional signals that may never fire", c.tagOf(w.id)),
					})
					continue
				}
				if c.oblSeen == nil {
					c.oblSeen = make([]bool, len(c.sigBuf))
				}
				if seen := &c.oblSeen[first+int32(lo)]; !*seen {
					*seen = true
					for m := lo + 1; m <= j; m++ {
						c.obls = append(c.obls, obligation{v: w.v, r: r, cand: ss[m]})
					}
				}
			}
			rel = span{first + int32(lo), 1}
		}
		c.rel[w.id] = rel
	}
	// Lay the release successors out by signal, each signal's waits in
	// ascending node id: count, take prefix sums, and fill back to front.
	c.succStart = make([]int32, c.total+1)
	for _, w := range c.waits {
		for _, r := range c.rels(w.id) {
			c.succStart[r.id]++
		}
	}
	for id := 1; id < c.total; id++ {
		c.succStart[id] += c.succStart[id-1]
	}
	if c.total > 0 {
		c.succStart[c.total] = c.succStart[c.total-1]
	}
	c.succ = make([]int32, c.succStart[c.total])
	for i := len(c.waits) - 1; i >= 0; i-- {
		w := c.waits[i]
		for _, r := range c.rels(w.id) {
			c.succStart[r.id]--
			c.succ[c.succStart[r.id]] = int32(w.id)
		}
	}
}

// sortAndClock runs Kahn's algorithm over program-order and release edges,
// computing each node's vector clock as it is popped. Returns false (with a
// deadlock finding) if the graph has a cycle.
func (c *checker) sortAndClock() bool {
	indeg := make([]int32, c.total)
	for id := range indeg {
		if c.kOf[id] > 0 {
			indeg[id]++
		}
		indeg[id] += c.rel[id].n
	}
	queue := make([]int32, 0, c.total)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(id))
		}
	}
	c.clock = make([]clockRef, c.total)
	processed := 0
	for len(queue) > 0 {
		id := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		processed++

		if c.rel[id].n > 0 || c.kOf[id] == 0 {
			c.headClock(id, c.rels(id))
		} else {
			c.clock[id] = c.clock[id-1]
		}

		if next := id + 1; next < c.base[c.iterOf[id]+1] {
			if indeg[next]--; indeg[next] == 0 {
				queue = append(queue, int32(next))
			}
		}
		for _, s := range c.succ[c.succStart[id]:c.succStart[id+1]] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed == c.total {
		return true
	}
	// Every node that reached in-degree zero was processed.
	c.reportCycle(indeg)
	return false
}

// headClock computes and stores the clock of segment head id, an
// iteration's first step or a wait with releasers rels: its predecessor's
// clock, joined with every releaser's, with its own step counted. A wait
// whose releasers are all already in its predecessor's past is tallied as
// redundant at its site.
func (c *checker) headClock(id int, rels []sigRec) {
	cur := c.cur[:0]
	if c.kOf[id] > 0 {
		cur = c.appendClock(cur, id-1)
	}
	if len(rels) > 0 {
		redundant := true
		for _, r := range rels {
			if lookup(cur, r.iter) <= r.k {
				redundant = false
				break
			}
		}
		c.tallySite(id, redundant)
		for _, r := range rels {
			c.tmp = c.mergeClock(c.tmp[:0], cur, r.id)
			cur, c.tmp = c.tmp, cur
		}
	}
	// Clock entries count ordered prefix nodes (kOf+1), so a missing
	// entry (0) means "nothing of that iteration is ordered before" —
	// including its first node.
	cur = advance(cur, c.iterOf[id], c.kOf[id]+1)
	c.clock[id] = c.store(cur)
	c.cur = cur
}

// store copies clock cl into the arena.
func (c *checker) store(cl []tick) clockRef {
	last := len(c.arena) - 1
	if last < 0 || cap(c.arena[last])-len(c.arena[last]) < len(cl) {
		size := arenaFirst
		if last >= 0 {
			size = min(2*cap(c.arena[last]), arenaMax)
		}
		c.arena = append(c.arena, make([]tick, 0, max(size, len(cl))))
		last++
	}
	b := &c.arena[last]
	ref := clockRef{int32(last), int32(len(*b)), int32(len(cl))}
	*b = append(*b, cl...)
	return ref
}

// stored returns the stored clock of node id's segment.
func (c *checker) stored(id int) []tick {
	r := c.clock[id]
	return c.arena[r.blk][r.off : r.off+r.n]
}

// clockAt returns node id's clock entry for iteration iter.
func (c *checker) clockAt(id int, iter int64) int32 {
	if iter == int64(c.iterOf[id]) {
		return c.kOf[id] + 1
	}
	return lookup(c.stored(id), iter)
}

// appendClock appends node id's clock to dst.
func (c *checker) appendClock(dst []tick, id int) []tick {
	n := len(dst)
	dst = append(dst, c.stored(id)...)
	own := dst[n:]
	own[search(own, int64(c.iterOf[id]))].k = c.kOf[id] + 1
	return dst
}

// mergeClock appends to dst the entry-wise maximum of clock a and node
// id's clock: a linear merge of two iteration-sorted tick lists.
func (c *checker) mergeClock(dst, a []tick, id int) []tick {
	b := c.stored(id)
	own := tick{c.iterOf[id], c.kOf[id] + 1}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		t := b[j]
		if t.iter == own.iter {
			t = own
		}
		switch {
		case a[i].iter < t.iter:
			dst = append(dst, a[i])
			i++
			continue
		case a[i].iter == t.iter:
			t.k = max(t.k, a[i].k)
			i++
		}
		dst = append(dst, t)
		j++
	}
	dst = append(dst, a[i:]...)
	for ; j < len(b); j++ {
		if t := b[j]; t.iter == own.iter {
			dst = append(dst, own)
		} else {
			dst = append(dst, t)
		}
	}
	return dst
}

// search returns the index of iteration iter's tick in cl, or where it
// would be inserted.
func search(cl []tick, iter int64) int {
	lo, hi := 0, len(cl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int64(cl[m].iter) < iter {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// lookup returns clock cl's entry for iteration iter.
func lookup(cl []tick, iter int64) int32 {
	if i := search(cl, iter); i < len(cl) && int64(cl[i].iter) == iter {
		return cl[i].k
	}
	return 0
}

// advance raises clock cl's entry for iteration iter to at least k.
func advance(cl []tick, iter, k int32) []tick {
	i := search(cl, int64(iter))
	if i < len(cl) && cl[i].iter == iter {
		cl[i].k = max(cl[i].k, k)
		return cl
	}
	return slices.Insert(cl, i, tick{iter, k})
}

// reportCycle extracts one wait-for cycle from the unprocessed residue as a
// deadlock certificate: walk predecessors (which must themselves be
// unprocessed) until a node repeats. A node is unprocessed when its
// in-degree never reached zero.
func (c *checker) reportCycle(indeg []int32) {
	start := -1
	for id := 0; id < c.total; id++ {
		if indeg[id] > 0 {
			start = id
			break
		}
	}
	pos := make(map[int]int)
	var path []int
	cur := start
	for {
		if p, ok := pos[cur]; ok {
			path = path[p:]
			break
		}
		pos[cur] = len(path)
		path = append(path, cur)
		next := -1
		if c.kOf[cur] > 0 && indeg[cur-1] > 0 {
			next = cur - 1
		} else {
			for _, r := range c.rels(cur) {
				if indeg[r.id] > 0 {
					next = r.id
					break
				}
			}
		}
		cur = next // an unprocessed node always has an unprocessed predecessor
	}
	// path follows predecessor links; reverse for wait-for order.
	cycle := make([]string, 0, len(path)+1)
	for i := len(path) - 1; i >= 0; i-- {
		id := path[i]
		cycle = append(cycle, fmt.Sprintf("iter %d: %s", c.iterOf[id], c.tagOf(id)))
		if len(cycle) == 24 && i > 0 {
			cycle = append(cycle, fmt.Sprintf("... (%d more)", i))
			break
		}
	}
	c.rep.Findings = append(c.rep.Findings, Finding{
		Class:   Deadlock,
		Summary: fmt.Sprintf("wait-for cycle over %d synchronization operations", len(path)),
		Cycle:   cycle,
	})
}

func (c *checker) checkObligations() {
	for _, o := range c.obls {
		if c.clockAt(o.cand.id, o.r.iter) > o.r.k {
			continue
		}
		c.addHard(findKey{kind: "unsound", a: o.v, b: o.r.id}, Finding{
			Class: UnsoundRelease, Var: c.vname(o.v),
			Summary: fmt.Sprintf("conditional signal %s (iter %d) may not fire, and fallback releaser %s (iter %d) does not carry its effects",
				c.tagOf(o.r.id), o.r.iter, c.tagOf(o.cand.id), o.cand.iter),
		})
	}
}

// checkChains verifies the serialized-writer discipline the release rule
// relies on: consecutive signal values on a plain variable must be
// happens-before ordered (or the later one's firing guard must already
// imply the earlier value is visible). Variables are checked in ascending
// id.
func (c *checker) checkChains() {
	for v, vi := range c.vinfo {
		if vi.bad || vi.accum {
			continue
		}
		ss := c.sigs(v)
		for j := 0; j+1 < len(ss); j++ {
			a, b := ss[j], ss[j+1]
			if a.val == b.val {
				continue // same iteration (cross-iteration dups already reported)
			}
			if a.iter == b.iter && a.k < b.k {
				continue
			}
			if b.cond && b.guard >= a.val {
				continue // b fires only once a value >= a.val is visible
			}
			if c.clockAt(b.id, a.iter) > a.k {
				continue
			}
			c.addHard(findKey{kind: "chain", a: v}, Finding{
				Class: UnserializedSignals, Var: c.vname(v),
				Summary: fmt.Sprintf("signals %s=%d (iter %d) and %s=%d (iter %d) are not happens-before ordered; release order on %s is undefined",
					c.vname(v), a.val, a.iter, c.vname(v), b.val, b.iter, c.vname(v)),
				Detail: fmt.Sprintf("%s / %s", c.tagOf(a.id), c.tagOf(b.id)),
			})
			break
		}
	}
}

// checkArcs verifies the nest's enforced dependence set against the
// happens-before clocks. Instances are enumerated from the depth-k graph,
// not the linearized one: coalescing conservatively adds boundary "extra
// dependences" (dashed in Fig 5.2c) that distance-based schemes enforce
// for free but element-based data-oriented schemes correctly do not — those
// pairs are no true dependence and must not be demanded of any scheme.
func (c *checker) checkArcs() {
	nest := c.sp.Workload.Nest
	g := nest.Analyze()
	stmts := g.Stmts
	for _, a := range g.UnknownArcs() {
		c.addHard(findKey{kind: "unk", a: a.Src, b: a.Dst}, Finding{
			Class: Unanalyzable,
			Arc:   fmt.Sprintf("%s -%s(?%s)-> %s", stmts[a.Src].Name, a.Kind, a.Reason, stmts[a.Dst].Name),
			Summary: fmt.Sprintf("arc %s -%s-> %s has no compile-time distance (%s) and cannot be statically verified",
				stmts[a.Src].Name, a.Kind, stmts[a.Dst].Name, a.Reason),
			Detail: a.Reason.Explain(),
		})
	}
	seenCross := make(map[string]bool)
	idx := make([]int64, nest.Depth())
	for _, a := range g.Arcs {
		if !a.Known || a.LoopIndep {
			continue
		}
		if c.sp.Renamed && a.Kind != deps.Flow {
			continue // single-assignment storage: anti/output are vacuous
		}
		arcStr := fmt.Sprintf("%s -%s(%s)-> %s", stmts[a.Src].Name, a.Kind, distStr(a.Dist), stmts[a.Dst].Name)
		key := fmt.Sprintf("%d|%d|%v", a.Src, a.Dst, a.Dist)
		if seenCross[key] {
			continue
		}
		seenCross[key] = true
		c.rep.Arcs++
		var fails int64
		var wSrc, wDst int64
		for i := int64(1); i <= c.w; i++ {
			idx = nest.IndexInto(idx, i)
			ok := true
			for l, d := range a.Dist {
				idx[l] += d
				if idx[l] < nest.Indexes[l].Lo || idx[l] > nest.Indexes[l].Hi {
					ok = false
					break
				}
			}
			if !ok {
				continue // the sink falls outside the iteration space
			}
			j := nest.LpidOf(idx)
			if j > c.w {
				continue // beyond the (possibly truncated) window
			}
			sn := c.node(i, a.Src)
			dn := c.node(j, a.Dst)
			if sn < 0 || dn < 0 {
				continue // a branch skipped one endpoint: no instance
			}
			c.rep.PairsChecked++
			if c.clockAt(dn, i) > c.kOf[sn] {
				continue
			}
			if c.sp.Renamed && c.flowKilled(g, a, i, j, nest.IndexOf(i)) {
				continue // the sink reads a later renamed version, not this write
			}
			if fails == 0 {
				wSrc, wDst = i, j
			}
			fails++
		}
		if fails > 0 {
			c.rep.Findings = append(c.rep.Findings, Finding{
				Class: Race, Arc: arcStr, Pairs: fails,
				SrcIter: nest.IndexOf(wSrc), DstIter: nest.IndexOf(wDst),
				Summary: fmt.Sprintf("dependence %s is not enforced: iteration %v's %s is unordered with iteration %v's %s (%d instance pairs)",
					arcStr, nest.IndexOf(wSrc), stmts[a.Src].Name, nest.IndexOf(wDst), stmts[a.Dst].Name, fails),
			})
		}
	}
	// Loop-independent arcs need body order within each iteration.
	seen := make(map[[2]int]bool)
	for _, a := range g.Arcs {
		if !a.Known || !a.LoopIndep || a.Src == a.Dst || seen[[2]int{a.Src, a.Dst}] {
			continue
		}
		seen[[2]int{a.Src, a.Dst}] = true
		for i := int64(1); i <= c.w; i++ {
			sn := c.node(i, a.Src)
			dn := c.node(i, a.Dst)
			if sn < 0 || dn < 0 || c.kOf[sn] < c.kOf[dn] {
				continue
			}
			c.addHard(findKey{kind: "li", a: a.Src, b: a.Dst}, Finding{
				Class: Race,
				Arc:   fmt.Sprintf("%s -%s(0)-> %s", stmts[a.Src].Name, a.Kind, stmts[a.Dst].Name),
				Summary: fmt.Sprintf("loop-independent dependence %s -> %s violated: iteration %v executes them out of body order",
					stmts[a.Src].Name, stmts[a.Dst].Name, nest.IndexOf(i)),
				SrcIter: nest.IndexOf(i), DstIter: nest.IndexOf(i),
			})
			break
		}
	}
}

// flowKilled reports whether the flow-arc instance (src iteration i, sink
// iteration j) is superseded by another write to the same element strictly
// between the two accesses in serial order. Pairwise dependence analysis
// keeps such stale arcs (it has no kill analysis), and shared-storage
// schemes satisfy them transitively through the covering output arc; but
// under renamed single-assignment storage the sink reads the killing
// write's fresh version, so the stale write-to-read pair needs no ordering
// at all. Control flow is data-independent, so "the kill executes" is a
// static fact (stmtNode), not an approximation.
func (c *checker) flowKilled(g *deps.Graph, a deps.Arc, i, j int64, srcIdx []int64) bool {
	nest := c.sp.Workload.Nest
	elem := make([]int64, len(a.SrcRef.Index))
	for l, ix := range a.SrcRef.Index {
		elem[l] = ix.Eval(srcIdx)
	}
	for m := i; m <= j; m++ {
		mIdx := nest.IndexOf(m)
		for p, st := range g.Stmts {
			if c.node(m, p) < 0 {
				continue // branch skipped: the would-be kill never executes
			}
			if (m == i && p <= a.Src) || (m == j && p >= a.Dst) {
				continue // not strictly between source and sink
			}
			for _, wr := range st.Writes {
				if wr.Array != a.SrcRef.Array || len(wr.Index) != len(elem) {
					continue
				}
				hit := true
				for l, ix := range wr.Index {
					if ix.Eval(mIdx) != elem[l] {
						hit = false
						break
					}
				}
				if hit {
					return true
				}
			}
		}
	}
	return false
}

func distStr(dist []int64) string {
	s := ""
	for l, d := range dist {
		if l > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", d)
	}
	return s
}

// node returns the node id of statement pos's execution in iteration
// iter, -1 when a branch skipped it.
func (c *checker) node(iter int64, pos int) int {
	return int(c.stmtNode[int(iter-1)*c.nStmts+pos])
}

// tallySite counts wait waitID at its site, and as redundant there if it
// is. It renders nothing: only reportRedundant renders a site's text and
// sample, for the sites it reports.
func (c *checker) tallySite(waitID int, redundant bool) {
	site := c.sp.Machine.SiteOf(c.ops[waitID].Tag)
	i, ok := c.sites[site]
	if !ok {
		i = len(c.siteStats)
		c.sites[site] = i
		c.siteStats = append(c.siteStats, siteStat{site: site, sample: waitID})
	}
	st := &c.siteStats[i]
	st.total++
	if redundant {
		st.redundant++
	}
}

func (c *checker) reportRedundant() {
	for _, st := range c.siteStats {
		if st.redundant < st.total {
			continue
		}
		site := string(c.sp.Machine.AppendSite(c.buf[:0], st.site))
		c.rep.Notes = append(c.rep.Notes, Finding{
			Class: RedundantWait, Site: site,
			Summary: fmt.Sprintf("all %d instances of wait site %q are already implied transitively (e.g. %s); the wait could be eliminated",
				st.total, site, c.tagOf(st.sample)),
		})
	}
	slices.SortStableFunc(c.rep.Notes, func(a, b Finding) int { return strings.Compare(a.Site, b.Site) })
}
