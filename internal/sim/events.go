package sim

// The event engine. Every scheduled action of the machine is one tagged
// event struct dispatched in Machine.exec — no per-event closures, no
// interface boxing through container/heap. Events are totally ordered by
// (time, sequence number), so the pop order is independent of the heap's
// internal shape: the 4-ary heap below pops exactly the sequence the old
// binary heap did, which is what lets the typed engine reproduce the
// closure engine's runs bit for bit.

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

// event is one scheduled engine action: a timestamp, a tie-breaking
// sequence number, the action kind, and the operands the kind needs. The
// operand fields form a small union — each kind reads only its own subset —
// so scheduling an event allocates nothing.
type event struct {
	t, seq int64
	kind   evKind
	p      *proc
	op     *Op
	v      *syncVar
	e      *busEntry
	w      *blockedWait
	val    int64
}

// eventBefore is the total event order: time, then issue sequence.
func eventBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQ is an inlined 4-ary min-heap of events. 4-ary halves the tree
// depth of a binary heap (fewer cache lines touched per push/pop on the
// drain loop's hot path) and needs no interface dispatch; the backing
// array is reused for the whole run.
type eventQ struct {
	a []event
}

func (q *eventQ) len() int { return len(q.a) }

func (q *eventQ) push(e event) {
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventBefore(&q.a[i], &q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *eventQ) pop() event {
	top := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a[n] = event{} // clear pointers so popped operands aren't pinned
	q.a = q.a[:n]
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
			if eventBefore(&q.a[c], &q.a[best]) {
				best = c
			}
		}
		if !eventBefore(&q.a[best], &q.a[i]) {
			break
		}
		q.a[i], q.a[best] = q.a[best], q.a[i]
		i = best
	}
	return top
}

// post schedules ev at time t, stamping the global tie-break sequence.
func (m *Machine) post(t int64, ev event) {
	ev.t = t
	ev.seq = m.seq
	m.seq++
	m.events.push(ev)
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
		if ev.op.Exec != nil {
			ev.op.Exec()
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
		if ev.op.Exec != nil {
			ev.op.Exec()
		}
		m.step(ev.p)

	case evRMW:
		v := ev.v
		m.mods[v.module].jobs--
		v.committed = ev.op.Apply(v.committed)
		m.recordSync(SyncEvent{Proc: ev.p.id, Iter: ev.p.iter, Kind: SyncSignal, Var: v.id, Value: v.committed}, ev.op.Tag)
		m.wake(v)
		if ev.op.Exec != nil {
			ev.op.Exec()
		}
		m.step(ev.p)

	case evPoll:
		v := ev.v
		m.mods[v.module].jobs--
		if v.committed >= ev.op.Value {
			p := ev.p
			p.waitSync += m.now - p.blockedSince
			m.addTrace(p, p.blockedSince, m.now, TraceWait, ev.op.Tag)
			m.recordSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: SyncWaitDone, Var: v.id, Value: ev.op.Value}, ev.op.Tag)
			if ev.op.Exec != nil {
				ev.op.Exec()
			}
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

func (m *Machine) allocWait(p *proc, min int64, tag Label) *blockedWait {
	if n := len(m.waitFree); n > 0 {
		w := m.waitFree[n-1]
		m.waitFree[n-1] = nil
		m.waitFree = m.waitFree[:n-1]
		w.p, w.min, w.tag = p, min, tag
		return w
	}
	return &blockedWait{p: p, min: min, tag: tag}
}

func (m *Machine) freeWait(w *blockedWait) {
	w.p, w.tag = nil, Label{}
	m.waitFree = append(m.waitFree, w)
}
