package expr

// Value is a statement's right-hand side: an integer expression over the
// iteration's index vector, the statement's array read values and the
// iteration's local scalar slots. Both front ends build it, package lang
// from a .do statement and package frontend from a Go assignment, so a
// program and its twin in the other language compute with the same tree.
type Value interface {
	// Eval computes the value from the index vector idx, the statement's
	// read values in (in Reads order) and the iteration's local slots. The
	// slices are the caller's; Eval allocates nothing.
	Eval(idx, in, locals []int64) int64
}

// Num is an integer constant.
type Num int64

// Var is the source value of loop index K, Offset + Scale*idx[K]. The Go
// frontend renumbers a strided loop to step 1 and folds the stride back in
// here; every other index has Scale 1 and Offset 0.
type Var struct {
	K             int
	Scale, Offset int64
}

// Local reads an iteration-local scalar's slot.
type Local int

// Read reads the statement's Read-th array read value.
type Read int

// Bin applies Op, one of '+', '-' and '*', to L and R.
type Bin struct {
	Op   byte
	L, R Value
}

// Neg returns -v.
func Neg(v Value) Value { return Bin{Op: '-', L: Num(0), R: v} }

func (n Num) Eval(_, _, _ []int64) int64        { return int64(n) }
func (v Var) Eval(idx, _, _ []int64) int64      { return v.Offset + v.Scale*idx[v.K] }
func (l Local) Eval(_, _, locals []int64) int64 { return locals[l] }
func (r Read) Eval(_, in, _ []int64) int64      { return in[r] }
func (b Bin) Eval(idx, in, locals []int64) int64 {
	l, r := b.L.Eval(idx, in, locals), b.R.Eval(idx, in, locals)
	switch b.Op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	}
	panic("expr: unknown operator " + string(b.Op))
}

// Locals numbers a loop body's iteration-local scalars: a name takes the
// next slot at its first mention, and len is the body's slot count.
type Locals map[string]int

// Slot returns the named local's slot.
func (l Locals) Slot(name string) int {
	slot, ok := l[name]
	if !ok {
		slot = len(l)
		l[name] = slot
	}
	return slot
}

// Sem binds v as a statement's semantics, with codegen.Sem's signature: it
// stores v into the statement's one array write when local is "", and into
// the named local's slot otherwise.
func (l Locals) Sem(local string, v Value) func(idx, in, locals, out []int64) {
	if local == "" {
		return func(idx, in, locals, out []int64) { out[0] = v.Eval(idx, in, locals) }
	}
	slot := l.Slot(local)
	return func(idx, in, locals, _ []int64) { locals[slot] = v.Eval(idx, in, locals) }
}
