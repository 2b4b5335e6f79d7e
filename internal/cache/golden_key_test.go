package cache

import (
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// goldenDo is a .do program with a branch: its key covers the parsed AST
// (statement names, costs, affine references and both IF arms).
const goldenDo = `DO I = 1, 50
  S1: A[I+1] = I*3
  IF ODD(I) THEN
    S2: B[I+2] = A[I] + 1000
  ELSE
    S3: B[I+2] = A[I] - 5
  END IF
  S4: C[I] = B[I]
END DO
`

const goldenGo = "package p\nfunc k(a, b []int) {\n\tfor i := 2; i < 30; i++ {\n\t\ta[i] = a[i-1] + b[i-2]\n\t\tb[i] = a[i] * 2\n\t}\n}\n"

// TestGoldenKeys pins the hex content address of one request per canon
// feature. The table was generated from the fmt-based encoder that
// preceded the append-only one; the preimage (and canonVersion) is
// unchanged, so every stored entry and every ring position keeps its
// address. A failure here means the encoding changed: bump canonVersion
// instead of editing the table.
func TestGoldenKeys(t *testing.T) {
	do, err := lang.Parse(goldenDo)
	if err != nil {
		t.Fatal(err)
	}
	chunked := canonCfg
	chunked.Dispatch, chunked.ChunkSize = sim.DispatchChunked, 3
	chunked.BusCoverage, chunked.DataLatency, chunked.MaxCycles = true, 1, 1<<20
	faulty := canonCfg
	faulty.FaultPlan = fault.Plan{Seed: 7, DropProb: 0.05, DelayProb: 0.25, DelayCycles: 6,
		TornProb: 0.1, TornOrder: fault.OwnerFirst, TornWindow: 2}
	recovering := canonCfg
	recovering.Processors, recovering.Modules = 6, 6
	recovering.FaultPlan = fault.Plan{HaltProc: 1, HaltAtCycle: 50}
	recovering.Recover = sim.Recover{AfterCycles: 40, MaxReclaims: 2}

	cases := []struct {
		name string
		key  Key
		want string
	}{
		{"builtin with if nodes", RequestKey(workloads.Branchy(40, 4), "process(X=8,improved)", canonCfg),
			"7dc8af0bfd7ae3be763e34aefb2390740d3b3ef766765e9f54f77b7050d02823"},
		{"nested builtin, chunked config", RequestKey(workloads.Nested(12, 5, 3), "pipeline(X=4,G=2)", chunked),
			"c3f0cc401b0c758de09e3d61dae3e688a8bfa10c00967fff5ea1666241951080"},
		{".do source", RequestKey(do, "data(ref-based)", canonCfg),
			"46e50215410a335d43fd8590c1729ecfab6c38ecbfdb3464030808a31ea76451"},
		{"armed fault plan", RequestKey(workloads.Fig21(40, 4), "data(instance-based)", faulty),
			"58393d84886c7ab706a1c7adc5ec1b2ebe42e6d325baec5d6a9adbf625c99279"},
		{"armed recover", RequestKey(workloads.Recurrence(40, 2, 4), "process(X=8,improved)", recovering),
			"09d21757900103df8ebd10a15ffb5a7e7bfa2852c69f8e51d4afc3ae85b3d095"},
		{"verify extra", VerifyKey(workloads.Fig21(24, 4), "process(X=4,improved)", canonCfg, true, 64),
			"8ea1d8e84ea958afdd9e66341b072751d617f3f3b6ab3d597c758efe5b6e957e"},
		{"verify extra, static", VerifyKey(do, "statement", canonCfg, false, 0),
			"ffc5d8ee3563608cdb1daf35f4ba5088174cf5933c4213ecf4bfa0d725bc03fa"},
		{"multi-scheme compile", CompileKey("input.go", []byte(goldenGo),
			[]string{"process(X=8,improved)", "process(X=8,basic)", "data(ref-based)", "data(instance-based)"}, canonCfg),
			"22f3651cc2949e4976709a976808c0bd613eb3dc43098f88c40cdcc25cdcd6af"},
		{"compile, armed fault plan", CompileKey("k.go", []byte(goldenGo), []string{"data(ref-based)"}, faulty),
			"2aca6371004983b42cefbbfdde3e91bf061c51c19fb1ce223cdf450f12ec0883"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRequestKeyAllocationFree: keying a built-in workload allocates
// nothing — the preimage is appended into a stack buffer and hashed in one
// call.
func TestRequestKeyAllocationFree(t *testing.T) {
	wl := workloads.Branchy(40, 4)
	if n := testing.AllocsPerRun(100, func() { RequestKey(wl, "process(X=8,improved)", canonCfg) }); n != 0 {
		t.Errorf("RequestKey allocates %v times per call, want 0", n)
	}
}

// BenchmarkRequestKey keys a built-in workload with a branch, the /run
// key every cache hit computes.
func BenchmarkRequestKey(b *testing.B) {
	wl := workloads.Branchy(40, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RequestKey(wl, "process(X=8,improved)", canonCfg)
	}
}
