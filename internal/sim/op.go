package sim

import "fmt"

// VarID identifies a synchronization variable declared on a Machine.
type VarID int32

// Residence says where a synchronization variable lives.
type Residence uint8

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
type OpKind uint8

// Op kinds.
const (
	// OpCompute models useful work: Cycles of computation, with the
	// statement semantics (Eff applied to Arg) at completion.
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
	// OpWriteIf writes Value to a Register variable only when the locally
	// visible value is at least CondGE; otherwise it is a no-op (no bus
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

// Effect is the semantics of a statement: what its execution does to the
// workload's memory. The machine calls Apply(op.Arg) when the op carrying
// the effect completes, in global event order; ExecSerial calls it in
// program order. For loop programs Arg is the iteration number of the
// statement instance, so a code generator binds one effect per statement
// per run and stamps each op with the iteration instead of building a
// closure per op.
//
// An effect may hold buffers and state owned by its run (an index vector,
// input and output values, iteration locals): the machine is
// single-goroutine and applies one effect at a time, running it to
// completion before the next, so per-run scratch reused by every Apply is
// never observed half-written. An effect must not keep anything that
// belongs to the op it came from, since op storage is recycled (Program).
type Effect interface {
	Apply(arg int64)
}

// EffectFunc adapts a function to Effect, for hand-built programs and
// tests. A code generator should not make one per op, since each closure
// is an allocation; it binds one effect per statement per run instead.
type EffectFunc func(arg int64)

// Apply implements Effect.
func (f EffectFunc) Apply(arg int64) { f(arg) }

// Op is one step of a process program. Programs are rebuilt every
// iteration, so the fields are ordered to keep the struct small: the
// narrow Var, Kind and HasPost share the last word.
type Op struct {
	Cycles int64             // OpCompute duration
	Value  int64             // OpWrite value / OpWait threshold
	Apply  func(int64) int64 // OpRMW update function
	// Eff is the statement semantics an OpCompute applies to Arg when it
	// completes; nil for pure work. Only compute ops carry one (the
	// machine and ExecSerial apply no other kind's).
	Eff Effect
	Arg int64
	// Tag names the op for traces, stall reports and static verification.
	// It is kept as parts and rendered only when one of those readers asks
	// (Label.String), so builders may stamp one on every op for free; the
	// rendered text is part of the sync trace and must stay stable.
	Tag Label

	// Touch lists the shared-memory elements whose accesses take effect
	// when Eff is applied, for the happens-before race checkers. Only a
	// machine recording a sync trace reads it (EnableSyncTrace), so code
	// generators set it only when Machine.SyncTracing reports true.
	Touch []MemAccess
	// Post is the synchronization variable's value after this op completes,
	// as guaranteed by the scheme's protocol. OpWrite implies Post == Value;
	// OpRMW builders whose protocol serializes updates (e.g. ticketed key
	// increments) stamp it explicitly so static analysis can model them.
	// Valid iff HasPost.
	Post int64
	// CondGE is an OpWriteIf's guard "visible value >= CondGE", declared
	// structurally so static analysis knows what the write's firing
	// implies. WriteVarIfGE sets it.
	CondGE  int64
	Var     VarID // sync-op target
	Kind    OpKind
	HasPost bool
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

// Compute returns a compute op of the given duration that applies eff to
// arg when it completes (eff may be nil for pure work).
func Compute(cycles int64, eff Effect, arg int64, tag string) Op {
	return Op{Kind: OpCompute, Cycles: cycles, Eff: eff, Arg: arg, Tag: Text(tag)}
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

// WriteVarIfGE returns a conditional register write: value is posted only
// when the locally visible value at issue time is at least min. The guard
// is declared structurally so static verification can reason about what a
// fired write implies (the improved mark_PC fires only once ownership has
// arrived).
func WriteVarIfGE(v VarID, value, min int64, tag string) Op {
	return Op{Kind: OpWriteIf, Var: v, Value: value, CondGE: min, Tag: Text(tag)}
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
//
// Semantics ride on the ops as effects (Effect), not closures: a program
// stamps each statement's op with an effect it bound once for the run and
// with the iteration as Arg, so building an iteration allocates nothing.
// An effect may hold the run's buffers but nothing of its op, which the
// next program call overwrites.
type Program func(dst []Op, iter int64) []Op
