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
	// for sync-op issue cost, scheduling overhead, stale-read re-checks and
	// waiter releases).
	evStep evKind = iota
	// evDispatch hands processor p its next self-scheduled iteration.
	evDispatch
	// evCompute completes compute op `op` on p: run semantics, record the
	// access batch, continue stepping.
	evCompute
	// evMemWrite completes a memory-module write of op on p: free the
	// module port, commit the value to v, wake pollers, continue stepping.
	evMemWrite
	// evRMW completes a memory-module read-modify-write of op on p.
	evRMW
	// evPoll completes one busy-wait probe of memory variable v by p.
	evPoll
	// evRelease performs a deferred (stale-read-lagged) release of waiter w
	// on register variable v.
	evRelease
	// evCommit commits bus entry e (zero-latency bus with an injected
	// broadcast delay).
	evCommit
	// evBusDone finishes e's broadcast: commit it, free the bus, start the
	// next queued broadcast.
	evBusDone
	// evDupCommit delivers an injected duplicate of value val to v.
	evDupCommit
	// evTornSecond lands the second half of a torn two-field commit of e;
	// val carries the intermediate word the first half exposed.
	evTornSecond
	// evReclaim reclaims halted processor p's PC ownership (recovery).
	evReclaim
)

// event holds the operands of one scheduled engine action: the action kind
// and the operands the kind needs. The operand fields form a small union —
// each kind reads only its own subset.
type event struct {
	kind evKind
	p    *proc
	op   *Op
	v    *syncVar
	e    *busEntry
	w    *blockedWait
	val  int64
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

// exec dispatches one popped event. The switch replaces the closure call of
// the old engine; each arm reproduces its closure's body exactly, in the
// same order, so runs are bit-identical to the pre-typed engine.
func (m *Machine) exec(ev *event) {
	switch ev.kind {
	case evStep:
		m.step(ev.p)

	case evDispatch:
		m.dispatch(ev.p)

	case evCompute:
		if ev.op.Eff != nil {
			ev.op.Eff.Apply(ev.op.Arg)
		}
		m.recordAccess(ev.p, ev.op)
		m.step(ev.p)

	case evMemWrite:
		v := ev.v
		m.mods[v.module].jobs--
		if ev.op.Value > v.committed {
			v.committed = ev.op.Value
		}
		m.wake(v)
		m.step(ev.p)

	case evRMW:
		v := ev.v
		m.mods[v.module].jobs--
		v.committed = ev.op.Apply(v.committed)
		m.recordSync(ev.p, SyncSignal, v, v.committed, &ev.op.Tag)
		m.wake(v)
		m.step(ev.p)

	case evPoll:
		v := ev.v
		m.mods[v.module].jobs--
		if v.committed >= ev.op.Value {
			p := ev.p
			p.waitSync += m.now - p.blockedSince
			m.addTrace(p, p.blockedSince, m.now, TraceWait, &ev.op.Tag)
			m.recordSync(p, SyncWaitDone, v, ev.op.Value, &ev.op.Tag)
			p.ip++
			m.step(p)
			return
		}
		m.poll(ev.p, v, ev.op)

	case evRelease:
		m.release(ev.v, ev.w)

	case evCommit:
		m.commit(ev.e)

	case evBusDone:
		m.commit(ev.e)
		m.busActive = false
		if m.busHead < len(m.busQueue) {
			m.busStart()
		}

	case evDupCommit:
		// The duplicate delivery lands after the original; monotone sync
		// variables must absorb it without effect.
		if ev.val > ev.v.committed {
			ev.v.committed = ev.val
		}
		m.wake(ev.v)

	case evTornSecond:
		// Second half of a torn commit: the variable holds exactly the
		// written word unless a later write already advanced past it.
		e := ev.e
		v, final := e.v, e.pe.val
		if v.committed == ev.val || final > v.committed {
			v.committed = final
		}
		m.removePend(v, e.pe)
		m.wake(v)
		m.freeEntry(e)

	case evReclaim:
		m.reclaim(ev.p)
	}
}

// Per-run freelists. The commit loop churns through pending writes, bus
// entries and blocked waiters at event rate; recycling them keeps the hot
// path allocation-free after warm-up. The machine is single-goroutine, so
// plain slices beat sync.Pool here (no per-P caches, no GC victimization).

func (m *Machine) allocPending(proc int, val int64) *pending {
	if n := len(m.pendFree); n > 0 {
		pe := m.pendFree[n-1]
		m.pendFree[n-1] = nil
		m.pendFree = m.pendFree[:n-1]
		pe.proc, pe.val = proc, val
		return pe
	}
	return &pending{proc: proc, val: val}
}

func (m *Machine) freePending(pe *pending) {
	m.pendFree = append(m.pendFree, pe)
}

func (m *Machine) allocEntry(v *syncVar, pe *pending) *busEntry {
	if n := len(m.entryFree); n > 0 {
		e := m.entryFree[n-1]
		m.entryFree[n-1] = nil
		m.entryFree = m.entryFree[:n-1]
		*e = busEntry{v: v, pe: pe}
		return e
	}
	return &busEntry{v: v, pe: pe}
}

func (m *Machine) freeEntry(e *busEntry) {
	*e = busEntry{}
	m.entryFree = append(m.entryFree, e)
}

func (m *Machine) allocWait(p *proc, op *Op) *blockedWait {
	if n := len(m.waitFree); n > 0 {
		w := m.waitFree[n-1]
		m.waitFree[n-1] = nil
		m.waitFree = m.waitFree[:n-1]
		w.p, w.min, w.op = p, op.Value, op
		return w
	}
	return &blockedWait{p: p, min: op.Value, op: op}
}

func (m *Machine) freeWait(w *blockedWait) {
	w.p, w.op = nil, nil
	m.waitFree = append(m.waitFree, w)
}
