package sim

import "math/bits"

// The event engine. Every scheduled action of the machine is one tagged
// event dispatched in Machine.exec — no per-event closures, no interface
// boxing through container/heap. Events are totally ordered by (time,
// sequence number), so the pop order is independent of how the queue
// stores them: the timing wheel below pops exactly the sequence a binary
// heap would, which is what keeps runs bit-identical across engine
// rewrites.

// evKind tags one scheduled engine action.
type evKind uint8

const (
	// evStep resumes processor p at its current instruction pointer (used
	// for sync-op issue cost, scheduling overhead and stale-read re-checks).
	evStep evKind = iota
	// evDispatch hands processor p its next self-scheduled iteration.
	evDispatch
	// evCompute completes p's compute op p.ops[p.ip-1]: run semantics,
	// record the access batch, continue stepping.
	evCompute
	// evMemWrite completes p's memory-module write p.ops[p.ip-1]: free the
	// module port, commit the value, wake pollers, continue stepping.
	evMemWrite
	// evRMW completes p's memory-module fetch-and-add p.ops[p.ip-1].
	evRMW
	// evPoll completes one busy-wait probe by p of the memory variable its
	// wait op p.ops[p.ip] names.
	evPoll
	// evRelease performs a deferred (stale-read-lagged) release of p, parked
	// on register variable arg with threshold val.
	evRelease
	// evCommit commits bus entry arg (zero-latency bus with an injected
	// broadcast delay).
	evCommit
	// evBusDone finishes bus entry arg's broadcast: commit it, free the
	// bus, start the next queued broadcast.
	evBusDone
	// evDupCommit delivers an injected duplicate of value val to variable
	// arg.
	evDupCommit
	// evTornSecond lands the second half of a torn two-field commit of bus
	// entry arg; val carries the intermediate word the first half exposed.
	evTornSecond
	// evReclaim reclaims halted processor p's PC ownership (recovery).
	evReclaim
)

// event holds the operands of one scheduled engine action: the kind, the
// processor it acts for, one int32 operand (a variable or a bus entry) and
// one value. It holds no pointer: an event that completes an op finds it
// through its processor (an op-carrying event blocks its processor, so the
// instruction pointer still names the op), variables are VarIDs and bus
// entries are indices into the machine's entry slab.
type event struct {
	val  int64
	p    int32
	arg  int32
	kind evKind
}

// wheelBits sets the timing wheel's size: W = 1<<wheelBits buckets, one bit
// of the occupancy word each. Almost every event is due a few cycles after
// the one being executed (an op's cost, a module's service time, a bus
// broadcast), far inside W.
const (
	wheelBits = 6
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// eventQ is a timing wheel over an overflow heap. Let now be the time of
// the last pop (no event is ever posted before it). An event due in
// [now, now+W) goes to the wheel bucket of its time mod W; since the wheel
// spans fewer than W cycles, every event of one bucket is due at the same
// time, and buckets are FIFO, so a bucket pops in sequence order (sequence
// numbers grow in post order). An event due at now+W or later goes to the
// overflow heap, which orders by (time, seq) itself.
//
// The next event is the earlier of the wheel's first occupied bucket at or
// after now and the heap's top. At equal times the heap's event goes first:
// it was posted while now was at most t-W, and the wheel's while now was
// past t-W, that is later, with a larger sequence number. So the pop order
// is exactly (time, seq).
//
// Wheel events live in one slab; buckets and the free list are lists
// threaded through it by index, so scheduling an event allocates nothing
// once the slab has grown to the run's peak of pending wheel events.
type eventQ struct {
	now    int64
	occ    uint64 // bit b set iff bucket b is non-empty
	head   [wheelSize]int32
	tail   [wheelSize]int32
	slab   []wheelEntry
	free   int32 // first free slab entry, -1 if none
	queued int   // events on the wheel
	over   overflowHeap
}

// wheelEntry is one wheel event: its operands, its sequence number and the
// next entry of its bucket (or of the free list), -1 at the end. It holds
// no pointer, so the slab is never scanned by the collector.
type wheelEntry struct {
	val  int64
	seq  int64
	p    int32
	arg  int32
	next int32
	kind evKind
}

func (q *eventQ) len() int { return q.queued + len(q.over) }

// reserve sizes the wheel's slab for n pending events and empties the
// free list; call it before the first push.
func (q *eventQ) reserve(n int) {
	q.slab = make([]wheelEntry, 0, n)
	q.free = -1
}

// push schedules ev at time t with tie-break sequence seq.
func (q *eventQ) push(t, seq int64, ev event) {
	if uint64(t-q.now) >= wheelSize {
		q.over.push(evKey{t: t, seq: seq, ev: ev})
		return
	}
	i := q.free
	if i >= 0 {
		q.free = q.slab[i].next
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, wheelEntry{})
	}
	// Field by field: a composite literal would be built on the stack with
	// narrow stores and copied with wide loads, which stall forwarding.
	e := &q.slab[i]
	e.val, e.seq, e.p, e.arg, e.next, e.kind = ev.val, seq, ev.p, ev.arg, -1, ev.kind
	b := t & wheelMask
	if q.occ&(1<<b) == 0 {
		q.occ |= 1 << b
		q.head[b] = i
	} else {
		q.slab[q.tail[b]].next = i
	}
	q.tail[b] = i
	q.queued++
}

// pop removes the earliest event and returns its time, its sequence number
// and its operands. The queue must not be empty.
func (q *eventQ) pop() (t, seq int64, ev event) {
	if q.occ != 0 {
		// The first occupied bucket at or after now's, wrapping.
		d := bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(q.now&wheelMask)))
		t = q.now + int64(d)
		if len(q.over) == 0 || t < q.over[0].t {
			b := t & wheelMask
			i := q.head[b]
			e := &q.slab[i]
			if e.next < 0 {
				q.occ &^= 1 << b
			} else {
				q.head[b] = e.next
			}
			seq, ev = e.seq, event{val: e.val, p: e.p, arg: e.arg, kind: e.kind}
			e.next = q.free
			q.free = i
			q.queued--
			q.now = t
			return t, seq, ev
		}
	}
	k := q.over.pop()
	q.now = k.t
	return k.t, k.seq, k.ev
}

// evKey is one overflow event: its time, its sequence number and its
// operands.
type evKey struct {
	t, seq int64
	ev     event
}

// before is the total event order: time, then issue sequence (unique).
func (a *evKey) before(b *evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// overflowHeap is a binary min-heap of the events due W or more cycles
// after the wheel's now: fault delays, deferred iterations, recovery
// timers and long module queues. They are rare, so it stores its events
// whole.
type overflowHeap []evKey

func (h *overflowHeap) push(k evKey) {
	*h = append(*h, k)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *overflowHeap) pop() evKey {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		best, l := i, 2*i+1
		if l < n && s[l].before(&s[best]) {
			best = l
		}
		if r := l + 1; r < n && s[r].before(&s[best]) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	*h = s
	return top
}

// post schedules ev at time t, stamping the global tie-break sequence.
func (m *Machine) post(t int64, ev event) {
	m.events.push(t, m.seq, ev)
	m.seq++
}

// exec dispatches one popped event. Each arm reproduces the engine's
// original closure body exactly, in the same order, so runs are
// bit-identical across engine rewrites.
func (m *Machine) exec(ev *event) {
	switch ev.kind {
	case evStep:
		m.step(&m.procs[ev.p])

	case evDispatch:
		m.dispatch(&m.procs[ev.p])

	case evCompute:
		p := &m.procs[ev.p]
		op := &p.ops[p.ip-1]
		if op.Eff != 0 {
			m.effects[op.Eff-1].Apply(op.Arg)
		}
		m.recordAccess(p, op)
		m.step(p)

	case evMemWrite:
		p := &m.procs[ev.p]
		op := &p.ops[p.ip-1]
		v := &m.vars[op.Var]
		m.mods[v.module].jobs--
		if op.Value > v.committed {
			v.committed = op.Value
		}
		m.wake(v)
		m.step(p)

	case evRMW:
		p := &m.procs[ev.p]
		op := &p.ops[p.ip-1]
		v := &m.vars[op.Var]
		m.mods[v.module].jobs--
		v.committed += op.Value
		m.recordSync(p, SyncSignal, v, v.committed, &op.Tag)
		m.wake(v)
		m.step(p)

	case evPoll:
		p := &m.procs[ev.p]
		op := &p.ops[p.ip]
		v := &m.vars[op.Var]
		m.mods[v.module].jobs--
		if v.committed >= op.Value {
			p.waitSync += m.now - p.blockedSince
			m.addTrace(p, p.blockedSince, m.now, TraceWait, &op.Tag)
			m.recordSync(p, SyncWaitDone, v, op.Value, &op.Tag)
			p.ip++
			m.step(p)
			return
		}
		m.poll(p, v)

	case evRelease:
		m.release(&m.vars[ev.arg], &m.procs[ev.p], ev.val)

	case evCommit:
		m.commit(ev.arg)

	case evBusDone:
		m.commit(ev.arg)
		m.busActive = false
		if m.busHead < len(m.busQueue) {
			m.busStart()
		}

	case evDupCommit:
		// The duplicate delivery lands after the original; monotone sync
		// variables must absorb it without effect.
		v := &m.vars[ev.arg]
		if ev.val > v.committed {
			v.committed = ev.val
		}
		m.wake(v)

	case evTornSecond:
		// Second half of a torn commit: the variable holds exactly the
		// written word unless a later write already advanced past it.
		e := &m.entries[ev.arg]
		v, final := &m.vars[e.v], e.val
		if v.committed == ev.val || final > v.committed {
			v.committed = final
		}
		m.removePend(v, ev.arg)
		m.wake(v)
		m.freeEntry(ev.arg)

	case evReclaim:
		m.reclaim(&m.procs[ev.p])
	}
}

// The bus entry slab. The commit loop churns through register writes at
// event rate; entries live in one run-owned slice and are named by index,
// and freed indices are reused, so the hot path allocates nothing once the
// slab has grown to the run's peak of writes in flight. The machine is
// single-goroutine, so a plain free list beats sync.Pool here.

// allocEntry returns a bus entry for processor proc's write of val to v.
func (m *Machine) allocEntry(v VarID, proc int, val int64) int32 {
	e := busEntry{val: val, v: v, proc: int32(proc)}
	if n := len(m.entryFree); n > 0 {
		ei := m.entryFree[n-1]
		m.entryFree = m.entryFree[:n-1]
		m.entries[ei] = e
		return ei
	}
	m.entries = append(m.entries, e)
	return int32(len(m.entries) - 1)
}

// freeEntry returns a committed entry's index to the free list.
func (m *Machine) freeEntry(ei int32) {
	m.entryFree = append(m.entryFree, ei)
}
