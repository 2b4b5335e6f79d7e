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
	// OpRMW atomically adds Value to a Memory variable (fetch&add: the
	// counter barrier's arrival, a data-oriented key's increment). The
	// processor blocks until served.
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
// the effect completes, in global event order. For loop programs Arg is
// the iteration number of the statement instance, so a code generator
// registers one effect per statement per run (Machine.AddEffect) and
// stamps each op with its EffID and the iteration instead of building a
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
// is an allocation; it registers one effect per statement per run instead.
type EffectFunc func(arg int64)

// Apply implements Effect.
func (f EffectFunc) Apply(arg int64) { f(arg) }

// EffID names an effect registered on the machine (Machine.AddEffect); 0
// is no effect.
type EffID int32

// Op is one step of a process program. Programs are rebuilt every
// iteration and the machine reads every op at least once, so the struct is
// kept small (88 bytes, pinned by a test) and holds no pointer: its effect
// and the string of its tag are indices into the machine's per-run tables
// and its tag's format an index into the package's registry, so op
// buffers are never scanned by the collector and filling an op needs no
// write barrier. It holds no list either: the shared-memory accesses of its
// semantics come from the effect itself (Toucher). Builders on the hot path
// fill ops in place (AppendCompute and its siblings) rather than copy one
// in.
type Op struct {
	Cycles int64 // OpCompute duration
	Value  int64 // OpWrite value / OpWait threshold / OpRMW addend
	Arg    int64 // the argument Eff is applied to
	// Post is the synchronization variable's value after this op completes,
	// as guaranteed by the scheme's protocol. OpWrite implies Post == Value;
	// OpRMW builders whose protocol serializes updates (e.g. ticketed key
	// increments) stamp it explicitly so static analysis can model them.
	// Valid iff HasPost.
	Post int64
	// CondGE is an OpWriteIf's guard "visible value >= CondGE", declared
	// structurally so static analysis knows what the write's firing
	// implies. AppendWriteVarIfGE sets it.
	CondGE int64
	// Tag names the op for traces, stall reports and static verification.
	// It is kept as parts and rendered only when one of those readers asks
	// (Machine.Render), so builders may stamp one on every op for free; the
	// rendered text is part of the sync trace and must stay stable.
	Tag Label
	// Eff is the statement semantics an OpCompute applies to Arg when it
	// completes; 0 for pure work. Only compute ops carry one (the machine
	// applies no other kind's).
	Eff EffID
	Var VarID // sync-op target
	// Stmt is 1 + the body position of the loop statement whose effect
	// completes with this compute op (its commit phase under a data
	// latency, else its only op), 0 on every other op. Static analysis
	// reads a program's statements from it.
	Stmt    int32
	Kind    OpKind
	HasPost bool
	// OwnCheck marks an ownership check of a folded process counter: the
	// wait of get_PC or transfer_PC, or the guard of the improved mark_PC.
	// The machine records whether every such check found its threshold
	// already bus-committed (Stats.OwnershipPrompt).
	OwnCheck bool
}

// Compute returns a compute op of the given duration that applies effect
// eff to arg when it completes (eff may be 0 for pure work).
func Compute(cycles int64, eff EffID, arg int64, tag Label) Op {
	return Op{Kind: OpCompute, Cycles: cycles, Eff: eff, Arg: arg, Tag: tag}
}

// WriteVar returns a posted synchronization write.
func WriteVar(v VarID, value int64, tag Label) Op {
	return Op{Kind: OpWrite, Var: v, Value: value, Tag: tag}
}

// WaitGE returns a busy-wait until the variable reaches value.
func WaitGE(v VarID, value int64, tag Label) Op {
	return Op{Kind: OpWait, Var: v, Value: value, Tag: tag}
}

// RMW returns an atomic fetch-and-add of delta on a memory variable.
func RMW(v VarID, delta int64, tag Label) Op {
	return Op{Kind: OpRMW, Var: v, Value: delta, Tag: tag}
}

// The Append builders are the constructors above for programs built every
// iteration: each extends ops by one op filled where it will live and
// returns the longer slice, so no op is built and then copied in by
// append.

// grow extends ops by one op and returns the slice and the new op. A slot
// of the recycled buffer is not cleared first: every builder overwrites
// all of the op's fields anyway (fill), so clearing would write each op
// twice.
func grow(ops []Op) ([]Op, *Op) {
	if n := len(ops); n < cap(ops) {
		ops = ops[:n+1]
	} else {
		ops = append(ops, Op{})
	}
	return ops, &ops[len(ops)-1]
}

// fill overwrites every field of op with a kind op on v carrying value and
// tag, its other fields zero.
func (op *Op) fill(kind OpKind, v VarID, value int64, tag Label) {
	op.Cycles, op.Value, op.Arg, op.Post, op.CondGE = 0, value, 0, 0, 0
	op.Tag, op.Eff, op.Var, op.Stmt, op.Kind, op.HasPost, op.OwnCheck = tag, 0, v, 0, kind, false, false
}

// AppendCompute appends Compute(cycles, eff, arg, tag).
func AppendCompute(ops []Op, cycles int64, eff EffID, arg int64, tag Label) []Op {
	ops, op := grow(ops)
	op.fill(OpCompute, 0, 0, tag)
	op.Cycles, op.Eff, op.Arg = cycles, eff, arg
	return ops
}

// AppendWriteVar appends WriteVar(v, value, tag).
func AppendWriteVar(ops []Op, v VarID, value int64, tag Label) []Op {
	ops, op := grow(ops)
	op.fill(OpWrite, v, value, tag)
	return ops
}

// AppendWaitGE appends WaitGE(v, value, tag), marked as an ownership check
// (Op.OwnCheck) when own is set.
func AppendWaitGE(ops []Op, v VarID, value int64, own bool, tag Label) []Op {
	ops, op := grow(ops)
	op.fill(OpWait, v, value, tag)
	op.OwnCheck = own
	return ops
}

// AppendWriteVarIfGE appends a conditional register write, marked as an
// ownership check (Op.OwnCheck) when own is set: value is posted only when
// the locally visible value at issue time is at least min. The guard is
// declared structurally so static verification can reason about what a
// fired write implies (the improved mark_PC fires only once ownership has
// arrived).
func AppendWriteVarIfGE(ops []Op, v VarID, value, min int64, own bool, tag Label) []Op {
	ops, op := grow(ops)
	op.fill(OpWriteIf, v, value, tag)
	op.CondGE, op.OwnCheck = min, own
	return ops
}

// AppendRMWPost appends a fetch-and-add of delta on a memory variable for a
// protocol that serializes updates, stamping the value the variable is
// guaranteed to hold once the op completes (e.g. a ticketed increment
// performed only after the key reached the ticket). The stamp lets static
// verification model the op without executing it.
func AppendRMWPost(ops []Op, v VarID, delta, post int64, tag Label) []Op {
	ops, op := grow(ops)
	op.fill(OpRMW, v, delta, tag)
	op.Post, op.HasPost = post, true
	return ops
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
// stamps each statement's op with the EffID of an effect it registered
// once for the run and with the iteration as Arg, so building an iteration
// allocates nothing. An effect may hold the run's buffers but nothing of
// its op, which the next program call overwrites. Everything an op names
// (effects, strings of its tag) is registered before the run.
type Program func(dst []Op, iter int64) []Op
