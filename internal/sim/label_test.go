package sim

import "testing"

var (
	fmtWaitPC = RegisterFormat("wait_PC(%d,%d) i=%d")
	fmtAwait  = RegisterFormat("await c=%d seq>=%d")
	fmtFill   = RegisterFormat("fe:fill %s.v%d.c%d")
	fmtCommit = RegisterFormat("%s:commit")
	fmtNoVerb = RegisterFormat("50%% at %x")
	fmtKey    = RegisterFormat("key:wait %s>=%d")
)

// listNames names block member i by its i-th string.
type listNames []string

func (l listNames) Name(i int) string { return l[i] }

func TestLabelRendering(t *testing.T) {
	m := New(Config{Processors: 1})
	s1 := m.AddNames(2, listNames{"S1", "100% %d verbatim"})
	elems := m.AddNames(8, IndexedNames("A[%d,4]"))
	for _, c := range []struct {
		l    Label
		want string
	}{
		{Text(s1), "S1"},
		{m.Text("S2"), "S2"},
		{Text(s1 + 1), "100% %d verbatim"},
		{Label{}, ""},
		{Tagf(fmtWaitPC, 2, 1, 10), "wait_PC(2,1) i=10"},
		{Tagf(fmtAwait, 0, -3), "await c=0 seq>=-3"},
		{TagSf(fmtFill, elems+3, 2, 0), "fe:fill A[3,4].v2.c0"},
		{TagSf(fmtCommit, s1), "S1:commit"},
		{Tagf(fmtNoVerb), "50%% at %x"},
	} {
		if got := m.Render(c.l); got != c.want {
			t.Errorf("Render = %q, want %q", got, c.want)
		}
	}
}

// TestLabelBuildAllocationFree: op builders stamp a label on every op of
// every iteration, so building one must not allocate.
func TestLabelBuildAllocationFree(t *testing.T) {
	m := New(Config{Processors: 1})
	elem := m.AddNames(1, listNames{"A[7]"})
	var sink Op
	if n := testing.AllocsPerRun(100, func() {
		sink = WaitGE(1, 2, Label{})
		sink.Tag = TagSf(fmtKey, elem, 9)
	}); n != 0 {
		t.Errorf("building a labelled op allocates %v times, want 0", n)
	}
	if got := m.Render(sink.Tag); got != "key:wait A[7]>=9" {
		t.Errorf("label renders %q", got)
	}
}

// TestLabelRegistrySealed: the format registry is read without a lock by
// every machine, so it may only grow before the first machine exists, and
// a machine's names only before its run.
func TestLabelRegistrySealed(t *testing.T) {
	New(Config{Processors: 1})
	mustPanic(t, "RegisterFormat after New", func() { RegisterFormat("late %d") })
	m := New(Config{Processors: 1})
	if _, err := m.RunProcesses([][]Op{nil}); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Text after the run", func() { m.Text("late") })
	mustPanic(t, "AddNames after the run", func() { m.AddNames(1, listNames{"late"}) })
	mustPanic(t, "AddEffect after the run", func() { m.AddEffect(EffectFunc(func(int64) {})) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
