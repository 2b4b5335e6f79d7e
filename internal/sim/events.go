package sim

// The event engine. Every scheduled action of the machine is one tagged
// event dispatched in Machine.exec — no per-event closures, no interface
// boxing through container/heap. Events are totally ordered by (time,
// sequence number), so the pop order is independent of the heap's internal
// shape: the 4-ary heap below pops exactly the sequence a binary heap would,
// which is what keeps runs bit-identical across engine rewrites.

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
// entries are indices into the machine's entry slab. Copying one into and
// out of the queue slab moves 24 bytes and needs no GC write barrier.
type event struct {
	val  int64
	p    int32
	arg  int32
	kind evKind
}

// evKey orders one scheduled event: its time, the global tie-breaking
// sequence number, and the slot of eventQ.ops holding its operands. The
// key has no pointers, so sifting it through the heap copies 24 bytes and
// needs no GC write barrier.
type evKey struct {
	t, seq int64
	slot   int32
}

// before is the total event order: time, then issue sequence. Sequence
// numbers are unique, so the slot never decides.
func (a *evKey) before(b *evKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQ is an inlined 4-ary min-heap of event keys over a slab of event
// operands. 4-ary halves the tree depth of a binary heap (fewer cache lines
// touched per push/pop on the drain loop's hot path) and needs no interface
// dispatch. An event's operands stay in their slot from push to pop; freed
// slots are reused, so the slab and the key array are both recycled for the
// whole run and scheduling an event allocates nothing once they have grown
// to the run's peak of pending events.
type eventQ struct {
	keys []evKey
	ops  []event
	free []int32
}

func (q *eventQ) len() int { return len(q.keys) }

// reserve sizes the queue for n pending events.
func (q *eventQ) reserve(n int) {
	q.keys = make([]evKey, 0, n)
	q.ops = make([]event, 0, n)
	q.free = make([]int32, 0, n)
}

// push schedules ev at time t with tie-break sequence seq.
func (q *eventQ) push(t, seq int64, ev event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.ops[slot] = ev
	} else {
		slot = int32(len(q.ops))
		q.ops = append(q.ops, ev)
	}
	q.keys = append(q.keys, evKey{t: t, seq: seq, slot: slot})
	i := len(q.keys) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.keys[i].before(&q.keys[parent]) {
			break
		}
		q.keys[i], q.keys[parent] = q.keys[parent], q.keys[i]
		i = parent
	}
}

// pop removes the earliest event and returns its key and operands; its
// slot is free for the next push.
func (q *eventQ) pop() (evKey, event) {
	top := q.keys[0]
	n := len(q.keys) - 1
	q.keys[0] = q.keys[n]
	q.keys = q.keys[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.keys[c].before(&q.keys[best]) {
				best = c
			}
		}
		if !q.keys[best].before(&q.keys[i]) {
			break
		}
		q.keys[i], q.keys[best] = q.keys[best], q.keys[i]
		i = best
	}
	ev := q.ops[top.slot]
	q.free = append(q.free, top.slot)
	return top, ev
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
		if op.Eff != nil {
			op.Eff.Apply(op.Arg)
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
