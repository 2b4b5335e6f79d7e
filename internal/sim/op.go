package sim

import "fmt"

// VarID identifies a synchronization variable declared on a Machine.
type VarID int

// Residence says where a synchronization variable lives.
type Residence int

// Residences.
const (
	// Register variables live in per-processor synchronization-register
	// images kept coherent by the broadcast synchronization bus (process
	// counters, statement counters). A write is locally visible to its
	// writer at once and to other processors when its broadcast commits.
	// Busy-waits on registers spin on the local image: no traffic.
	Register Residence = iota
	// Memory variables live in a memory module (data-oriented keys,
	// barrier counters, full/empty bits). All operations, including every
	// poll of a busy-wait, pass through the module's FIFO service queue.
	Memory
)

// OpKind enumerates process operations.
type OpKind int

// Op kinds.
const (
	// OpCompute models useful work: Cycles of computation, with the
	// statement semantics (Exec) applied at completion.
	OpCompute OpKind = iota
	// OpWrite sets a synchronization variable to Value. Sync values are
	// monotonically non-decreasing by construction in every scheme here
	// (the paper relies on the same property in section 6). Writes are
	// posted: the processor continues after the local issue cost.
	OpWrite
	// OpWait blocks until the variable's visible value is >= Value.
	OpWait
	// OpRMW atomically applies Apply to a Memory variable (fetch&add class;
	// used by the counter barrier). The processor blocks until served.
	OpRMW
	// OpWriteIf writes Value to a Register variable only when its guard
	// (Cond, or CondGE when HasCondGE) holds for the locally visible value; otherwise it is a no-op (no bus
	// traffic). This models the improved mark_PC of Fig 4.3, which skips
	// the update when the process does not yet own its PC.
	OpWriteIf
)

// MemAccess names one shared-memory element an op touches, for race
// checking: the array, its coordinates, and whether the access writes.
// Ver distinguishes renamed single-assignment versions (instance-based
// storage); in-place schemes leave it 0.
type MemAccess struct {
	Array string
	Coord [2]int64
	Dims  int
	Ver   int64
	Write bool
}

func (a MemAccess) String() string {
	s := fmt.Sprintf("%s[%d", a.Array, a.Coord[0])
	if a.Dims == 2 {
		s += fmt.Sprintf(",%d", a.Coord[1])
	}
	s += "]"
	if a.Ver != 0 {
		s += fmt.Sprintf(".v%d", a.Ver)
	}
	return s
}

// Op is one step of a process program.
type Op struct {
	Kind   OpKind
	Cycles int64             // OpCompute duration
	Var    VarID             // sync-op target
	Value  int64             // OpWrite value / OpWait threshold
	Apply  func(int64) int64 // OpRMW update function
	Cond   func(int64) bool  // OpWriteIf guard over the visible value, unless HasCondGE
	Exec   func()            // semantics, run at completion (any kind)
	// Tag names the op for traces, stall reports and static verification.
	// It is kept as parts and rendered only when one of those readers asks
	// (Label.String), so builders may stamp one on every op for free; the
	// rendered text is part of the sync trace and must stay stable.
	Tag Label

	// Touch lists the shared-memory elements whose accesses take effect
	// when Exec runs, for the happens-before race checkers. Only a machine
	// recording a sync trace reads it (EnableSyncTrace), so code generators
	// set it only when Machine.SyncTracing reports true.
	Touch []MemAccess
	// Post is the synchronization variable's value after this op completes,
	// as guaranteed by the scheme's protocol. OpWrite implies Post == Value;
	// OpRMW builders whose protocol serializes updates (e.g. ticketed key
	// increments) stamp it explicitly so static analysis can model them.
	// Valid iff HasPost.
	Post    int64
	HasPost bool
	// CondGE is an OpWriteIf guard of the form "visible value >= CondGE"
	// (valid iff HasCondGE, which then replaces Cond), declared structurally
	// so static analysis knows what the write's firing implies.
	// WriteVarIfGE sets it.
	CondGE    int64
	HasCondGE bool
}

func (o Op) String() string {
	switch o.Kind {
	case OpCompute:
		return fmt.Sprintf("compute(%d)%s", o.Cycles, tag(o.Tag.String()))
	case OpWrite:
		return fmt.Sprintf("write(v%d=%d)%s", o.Var, o.Value, tag(o.Tag.String()))
	case OpWait:
		return fmt.Sprintf("wait(v%d>=%d)%s", o.Var, o.Value, tag(o.Tag.String()))
	case OpRMW:
		return fmt.Sprintf("rmw(v%d)%s", o.Var, tag(o.Tag.String()))
	case OpWriteIf:
		return fmt.Sprintf("writeif(v%d=%d)%s", o.Var, o.Value, tag(o.Tag.String()))
	}
	return fmt.Sprintf("op(%d)", int(o.Kind))
}

func tag(t string) string {
	if t == "" {
		return ""
	}
	return " " + t
}

// Compute returns a compute op.
func Compute(cycles int64, exec func(), tag string) Op {
	return Op{Kind: OpCompute, Cycles: cycles, Exec: exec, Tag: Text(tag)}
}

// WriteVar returns a posted synchronization write.
func WriteVar(v VarID, value int64, tag string) Op {
	return Op{Kind: OpWrite, Var: v, Value: value, Tag: Text(tag)}
}

// WaitGE returns a busy-wait until the variable reaches value.
func WaitGE(v VarID, value int64, tag string) Op {
	return Op{Kind: OpWait, Var: v, Value: value, Tag: Text(tag)}
}

// RMW returns an atomic read-modify-write on a memory variable.
func RMW(v VarID, apply func(int64) int64, tag string) Op {
	return Op{Kind: OpRMW, Var: v, Apply: apply, Tag: Text(tag)}
}

// RMWPost is RMW for protocols that serialize updates, stamping the value
// the variable is guaranteed to hold once the op completes (e.g. a ticketed
// increment performed only after the key reached the ticket). The stamp
// lets static verification model the op without executing it.
func RMWPost(v VarID, apply func(int64) int64, post int64, tag string) Op {
	return Op{Kind: OpRMW, Var: v, Apply: apply, Post: post, HasPost: true, Tag: Text(tag)}
}

// WriteVarIf returns a conditional register write: value is posted only when
// cond holds for the locally visible value at issue time.
func WriteVarIf(v VarID, value int64, cond func(int64) bool, tag string) Op {
	return Op{Kind: OpWriteIf, Var: v, Value: value, Cond: cond, Tag: Text(tag)}
}

// WriteVarIfGE is WriteVarIf with the guard "visible value >= min", declared
// structurally so static verification can reason about what a fired write
// implies (the improved mark_PC fires only once ownership has arrived).
func WriteVarIfGE(v VarID, value, min int64, tag string) Op {
	return Op{Kind: OpWriteIf, Var: v, Value: value, CondGE: min, HasCondGE: true, Tag: Text(tag)}
}

// fires reports whether an OpWriteIf posts its write when the locally
// visible value is cur: the structural CondGE guard when declared (no
// closure to build per op), otherwise Cond.
func (o *Op) fires(cur int64) bool {
	if o.HasCondGE {
		return cur >= o.CondGE
	}
	return o.Cond(cur)
}

// Program appends the op sequence of one process (iteration) to dst and
// returns the extended slice, append-style. Iterations are numbered as
// 1-based lpids. Programs are materialized at dispatch time; branch outcomes
// may depend on the iteration number but not on runtime data
// (data-independent control flow, as in the paper's Example 3).
//
// Ownership: the machine passes each processor's previous iteration slice
// back as dst[:0], so a program may overwrite anything in dst[:cap(dst)].
// This is sound because every event that refers to an op (a compute, a
// memory write, an RMW or a poll completion) blocks its processor until it
// fires, and the machine dispatches a processor's next iteration only once
// it has stepped past the last op of the current one: by then nothing
// refers to the old ops. The returned slice is the machine's until it comes
// back as the next dst, so a program must not return storage it keeps for
// itself. A caller that keeps the result passes nil.
type Program func(dst []Op, iter int64) []Op
