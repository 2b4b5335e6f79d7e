package sim

import "fmt"

// The synchronization trace is the dynamic-analysis feed of the machine: a
// totally ordered record of every synchronization-variable transition, every
// completed wait, and every shared-memory access (as declared by Op.Touch).
// The verify package replays it with vector clocks to find conflicting
// accesses unordered by happens-before, TSan-style.
//
// Events are appended in simulation-causal order: an event that releases
// another is always recorded first, so a replay may process the slice
// front to back without re-sorting.

// SyncKind classifies synchronization-trace events.
type SyncKind int

// Sync trace event kinds.
const (
	// SyncSignal is a synchronization-variable update, recorded at issue
	// time: the writer's knowledge at the moment of the write is the
	// happens-before point a released waiter inherits (a local waiter can
	// even observe a register write before its broadcast commits). RMWs are
	// recorded at module service, when their value exists; the performing
	// process is blocked in between, so its knowledge is unchanged.
	SyncSignal SyncKind = iota
	// SyncWaitDone is a completed busy-wait. Value is the wait threshold.
	SyncWaitDone
	// SyncAccess is a batch of shared-memory accesses performed by one
	// statement execution (the op's Touch list).
	SyncAccess
)

func (k SyncKind) String() string {
	switch k {
	case SyncSignal:
		return "signal"
	case SyncWaitDone:
		return "wait-done"
	case SyncAccess:
		return "access"
	}
	return fmt.Sprintf("SyncKind(%d)", int(k))
}

// SyncEvent is one synchronization-trace record.
type SyncEvent struct {
	Seq   int64 // position in causal order
	Time  int64 // simulation cycle of the event
	Proc  int   // processor that performed it
	Iter  int64 // iteration (lpid) the processor was running
	Kind  SyncKind
	Var   VarID       // SyncSignal / SyncWaitDone
	Value int64       // committed value / wait threshold
	Acc   []MemAccess // SyncAccess
	Tag   string
}

// EnableSyncTrace turns on synchronization-trace recording; call before
// Run*. Independent of EnableTrace (the timeline trace).
func (m *Machine) EnableSyncTrace() { m.syncTracing = true }

// SyncTracing reports whether the machine records a sync trace, the only
// reader of Op.Touch.
func (m *Machine) SyncTracing() bool { return m.syncTracing }

// SyncTraceEvents returns the recorded synchronization trace in causal
// order.
func (m *Machine) SyncTraceEvents() []SyncEvent {
	return append([]SyncEvent(nil), m.syncTrace...)
}

// recordSync records a signal or completed wait on v by processor p, tagged
// with the op's rendered label, when the machine is recording a sync trace.
// The label is passed by reference and the event built only when
// recording, so an untraced run copies neither.
func (m *Machine) recordSync(p *proc, kind SyncKind, v *syncVar, value int64, tag *Label) {
	if !m.syncTracing {
		return
	}
	m.appendSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: kind, Var: v.id, Value: value}, tag)
}

// recordAccess logs an op's Touch list at semantics time.
func (m *Machine) recordAccess(p *proc, op *Op) {
	if !m.syncTracing || len(op.Touch) == 0 {
		return
	}
	m.appendSync(SyncEvent{Proc: p.id, Iter: p.iter, Kind: SyncAccess, Acc: op.Touch}, &op.Tag)
}

func (m *Machine) appendSync(e SyncEvent, tag *Label) {
	e.Tag = tag.String()
	e.Seq = int64(len(m.syncTrace))
	e.Time = m.now
	m.syncTrace = append(m.syncTrace, e)
}

// VarCount returns the number of declared synchronization variables.
func (m *Machine) VarCount() int { return len(m.vars) }
