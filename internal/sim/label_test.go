package sim

import "testing"

func TestLabelRendering(t *testing.T) {
	for _, c := range []struct {
		l    Label
		want string
	}{
		{Text("S1"), "S1"},
		{Text("100% %d verbatim"), "100% %d verbatim"},
		{Label{}, ""},
		{Tagf("wait_PC(%d,%d) i=%d", 2, 1, 10), "wait_PC(2,1) i=10"},
		{Tagf("await c=%d seq>=%d", 0, -3), "await c=0 seq>=-3"},
		{TagSf("fe:fill %s.v%d.c%d", "A[3,4]", 2, 0), "fe:fill A[3,4].v2.c0"},
		{TagSf("%s:commit", "S2"), "S2:commit"},
		{Tagf("50%% at %x"), "50%% at %x"},
	} {
		if got := c.l.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestLabelBuildAllocationFree: op builders stamp a label on every op of
// every iteration, so building one must not allocate.
func TestLabelBuildAllocationFree(t *testing.T) {
	var sink Op
	elem := "A[7]"
	if n := testing.AllocsPerRun(100, func() {
		sink = WaitGE(1, 2, "")
		sink.Tag = TagSf("key:wait %s>=%d", elem, 9)
	}); n != 0 {
		t.Errorf("building a labelled op allocates %v times, want 0", n)
	}
	if got := sink.Tag.String(); got != "key:wait A[7]>=9" {
		t.Errorf("label renders %q", got)
	}
}
