package service

import (
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
)

// rhsLoops are two .do programs that differ only in a right-hand-side
// constant: the same labels, references and costs, so the same canonical
// request key, but different serial memory.
const rhsLoopA = `DO I = 1, 24
  S1: A[I] = A[I-1] + 1
END DO
`

var rhsLoopB = strings.Replace(rhsLoopA, "+ 1", "+ 2", 1)

// TestShapeKeyIsNotTheCanonicalKey: two sources that differ only in a
// right-hand-side constant share their canonical request key, so that key
// cannot address a Shape: their serial images differ. Their shape keys
// differ, and each seeded run passes serial equivalence against its own
// program's serial memory.
func TestShapeKeyIsNotTheCanonicalKey(t *testing.T) {
	specA, specB := WorkloadSpec{Source: rhsLoopA}, WorkloadSpec{Source: rhsLoopB}
	reqA := RunRequest{Workload: specA, Scheme: SchemeSpec{Name: "process", X: 4}, Config: ConfigSpec{P: 4}}
	reqB := reqA
	reqB.Workload = specB
	keyA, err := RunKey(reqA)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := RunKey(reqB)
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("the two programs' canonical keys differ (%s, %s); the guard needs programs that share one", keyA, keyB)
	}
	if specA.shapeKey() == specB.shapeKey() {
		t.Fatal("programs with different right-hand sides share a shape key")
	}

	s := NewServer(Options{Workers: 1})
	defer s.Drain(t.Context())
	for _, spec := range []WorkloadSpec{specA, specB, specA, specB} {
		wl, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		s.seedShape(wl, spec)
		if wl.Shape == nil {
			t.Fatal("a small .do workload was not seeded")
		}
		if _, err := codegen.Run(wl, codegen.ProcessOriented{X: 4, Improved: true}, ConfigSpec{P: 4}.SimConfig()); err != nil {
			t.Errorf("seeded run: %v", err)
		}
	}
	if st := s.shapes.Snapshot(); st.Entries != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("shape table %+v, want 2 entries, 2 misses, 2 hits", st)
	}
}

// TestShapeKeyDropsCostOnly: specs that differ only in cost, or in a
// parameter left at its default and spelled out, share a shape key; any
// other parameter separates them.
func TestShapeKeyDropsCostOnly(t *testing.T) {
	base := WorkloadSpec{Name: "recurrence", N: 60}
	same := []WorkloadSpec{
		{Name: "recurrence", N: 60, Cost: 7},
		{Name: "recurrence", N: 60, M: 8, D: 2, Cost: 4},
	}
	for _, s := range same {
		if s.shapeKey() != base.shapeKey() {
			t.Errorf("%+v: shape key differs from %+v's", s, base)
		}
	}
	differ := []WorkloadSpec{
		{Name: "recurrence", N: 61},
		{Name: "recurrence", N: 60, D: 3},
		{Name: "recurrence", N: 60, M: 9},
		{Name: "fig21", N: 60},
		{Source: rhsLoopA},
	}
	for _, s := range differ {
		if s.shapeKey() == base.shapeKey() {
			t.Errorf("%+v: shares %+v's shape key", s, base)
		}
	}
}

// TestShapeTableBound: a workload whose arrays hold more than
// maxShapeWords words is not admitted, and the table never holds more
// than shapeTableSize shapes; /metrics reports its hits, misses and size.
func TestShapeTableBound(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})

	big := WorkloadSpec{Name: "fig21", N: maxShapeWords}
	wl, err := big.Build()
	if err != nil {
		t.Fatal(err)
	}
	s.seedShape(wl, big)
	if wl.Shape != nil || s.shapes.Len() != 0 {
		t.Fatalf("an oversize shape was admitted (%d entries)", s.shapes.Len())
	}

	for n := int64(1); n <= shapeTableSize+100; n++ {
		spec := WorkloadSpec{Name: "recurrence", N: n}
		wl, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		s.seedShape(wl, spec)
		if got := s.shapes.Len(); got > shapeTableSize {
			t.Fatalf("shape table holds %d entries, bound %d", got, shapeTableSize)
		}
	}
	if got := s.shapes.Len(); got != shapeTableSize {
		t.Errorf("shape table holds %d entries after %d shapes, want %d", got, shapeTableSize+100, shapeTableSize)
	}

	// One more miss of the most recent shape is a table hit.
	spec := WorkloadSpec{Name: "recurrence", N: shapeTableSize + 100, Cost: 3}
	if resp, body := post(t, ts, "/run", RunRequest{Workload: spec, Scheme: SchemeSpec{Name: "process"}}); resp.StatusCode != 200 {
		t.Fatalf("/run: %d %s", resp.StatusCode, body)
	}
	m := getMetrics(t, ts.URL)
	for _, want := range []string{
		"dsserve_shape_hits_total 1\n",
		"dsserve_shape_misses_total 612\n",
		"dsserve_shape_entries 512\n",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
}

// TestSeededMissesMatchUnseeded: /run, /verify and /sweep answer a server
// whose shape table is warm exactly as one whose table is cold, so a Shape
// handed over between costs changes no response byte.
func TestSeededMissesMatchUnseeded(t *testing.T) {
	_, warm := testServer(t, Options{Workers: 2})
	for _, wl := range []WorkloadSpec{
		{Name: "branchy", N: 50, Cost: 1},
		{Name: "stencil", N: 10, Cost: 2},
		{Source: rhsLoopA},
	} {
		if resp, body := post(t, warm, "/sweep", SweepRequest{Workload: wl, Scheme: SchemeSpec{Name: "statement"},
			Grid: SweepGrid{P: []int{2, 4}}}); resp.StatusCode != 200 {
			t.Fatalf("warming /sweep: %d %s", resp.StatusCode, body)
		}
	}
	reqs := []struct {
		path string
		body any
	}{
		{"/run", RunRequest{Workload: WorkloadSpec{Name: "branchy", N: 50, Cost: 6}, Scheme: SchemeSpec{Name: "process"}}},
		{"/run", RunRequest{Workload: WorkloadSpec{Name: "stencil", N: 10, Cost: 5}, Scheme: SchemeSpec{Name: "instance"}}},
		{"/run", RunRequest{Workload: WorkloadSpec{Source: rhsLoopA}, Scheme: SchemeSpec{Name: "ref"}}},
		{"/verify", VerifyRequest{Workload: WorkloadSpec{Name: "branchy", N: 50, Cost: 3}, Scheme: SchemeSpec{Name: "statement"}, Dynamic: true}},
		{"/sweep", SweepRequest{Workload: WorkloadSpec{Name: "stencil", N: 10, Cost: 7}, Scheme: SchemeSpec{Name: "process"},
			Grid: SweepGrid{X: []int{2, 4}, P: []int{2, 4}}}},
	}
	for _, r := range reqs {
		_, cold := testServer(t, Options{Workers: 2})
		_, want := post(t, cold, r.path, r.body)
		_, got := post(t, warm, r.path, r.body)
		if string(got) != string(want) {
			t.Errorf("%s %+v on a warm shape table:\n%s\nwant (cold table):\n%s", r.path, r.body, got, want)
		}
	}
}

// TestSeededSerialMismatchFails: a Shape is trusted only for workloads of
// one shape key. Were a Shape handed to a workload of another shape, its
// run would fail serial equivalence instead of passing silently.
func TestSeededSerialMismatchFails(t *testing.T) {
	a, err := WorkloadSpec{Source: rhsLoopA}.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := WorkloadSpec{Source: rhsLoopB}.Build()
	if err != nil {
		t.Fatal(err)
	}
	a.Shape = new(codegen.Shape)
	cfg := sim.Config{Processors: 2, BusLatency: 1, MemLatency: 2, Modules: 2, SyncOpCost: 1, SchedOverhead: 1}
	if _, err := codegen.Run(a, codegen.StatementOriented{}, cfg); err != nil {
		t.Fatal(err)
	}
	b.Shape = a.Shape
	if _, err := codegen.Run(b, codegen.StatementOriented{}, cfg); err == nil || !strings.Contains(err.Error(), "serial equivalence") {
		t.Errorf("a run under another program's Shape: %v, want a serial-equivalence failure", err)
	}
}
