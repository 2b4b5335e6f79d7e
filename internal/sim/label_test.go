package sim

import "testing"

var (
	fmtWaitPC = RegisterFormat("wait_PC(%d,%d) i=%d")
	fmtAwait  = RegisterFormat("await c=%d seq>=%d")
	fmtFill   = RegisterFormat("fe:fill %s.v%d.c%d")
	fmtCommit = RegisterFormat("%s:commit")
	fmtNoVerb = RegisterFormat("50%% at %x")
	fmtKey    = RegisterFormat("key:wait %s>=%d")

	fmtSiteWait = RegisterSiteFormat("wait_PC(%d,%d) i=%d", "wait_PC(%d,%d)")
	fmtSiteKey  = RegisterSiteFormat("key:wait %s>=%d", "key:wait %s>=*")
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

// arrayNames names members 0-2 "A[i]" and 3-4 "B[i]", with the array as
// their site.
type arrayNames struct{}

func (arrayNames) Name(i int) string {
	if i < 3 {
		return "A[" + string(rune('0'+i)) + "]"
	}
	return "B[" + string(rune('0'+i-3)) + "]"
}

func (arrayNames) Site(i int) int {
	if i < 3 {
		return 0
	}
	return 3
}

func (arrayNames) SiteName(i int) string { return arrayNames{}.Name(i)[:1] + "[*]" }

// TestLabelSites: labels of a site format share a site when they differ
// only in what the site format drops, and a label of a format without one
// is its own site.
func TestLabelSites(t *testing.T) {
	m := New(Config{Processors: 1})
	other := m.AddNames(1, listNames{"x"})
	elems := m.AddNames(5, arrayNames{})
	for _, c := range []struct {
		a, b Label
		same bool
		site string // a's
	}{
		{Tagf(fmtSiteWait, 2, 1, 10), Tagf(fmtSiteWait, 2, 1, 11), true, "wait_PC(2,1)"},
		{Tagf(fmtSiteWait, 2, 1, 10), Tagf(fmtSiteWait, 2, 2, 10), false, "wait_PC(2,1)"},
		{TagSf(fmtSiteKey, elems+1, 3), TagSf(fmtSiteKey, elems+2, 7), true, "key:wait A[*]>=*"},
		{TagSf(fmtSiteKey, elems+2, 3), TagSf(fmtSiteKey, elems+3, 3), false, "key:wait A[*]>=*"},
		{TagSf(fmtSiteKey, elems+4, 3), TagSf(fmtSiteKey, elems+3, 1), true, "key:wait B[*]>=*"},
		{Tagf(fmtWaitPC, 2, 1, 10), Tagf(fmtWaitPC, 2, 1, 11), false, "wait_PC(2,1) i=10"},
		{Text(other), Text(other), true, "x"},
		{Text(elems + 1), Text(elems + 2), false, "A[1]"},
	} {
		if got := m.SiteOf(c.a) == m.SiteOf(c.b); got != c.same {
			t.Errorf("%q and %q share a site: %v, want %v", m.Render(c.a), m.Render(c.b), got, c.same)
		}
		for _, l := range []Label{c.a, m.SiteOf(c.a)} {
			if got := string(m.AppendSite(nil, l)); got != c.site {
				t.Errorf("site of %q renders %q, want %q", m.Render(l), got, c.site)
			}
		}
	}
	// Finding a site renders nothing, so it does not allocate.
	var site Label
	if n := testing.AllocsPerRun(100, func() { site = m.SiteOf(TagSf(fmtSiteKey, elems+4, 9)) }); n != 0 {
		t.Errorf("SiteOf allocates %v times, want 0", n)
	}
	if got := string(m.AppendSite(nil, site)); got != "key:wait B[*]>=*" {
		t.Errorf("site renders %q", got)
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
