package verify_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/frontend"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/verify"
)

// verifiableSchemes are the five schemes in the static happens-before
// model, by their service names.
var verifiableSchemes = []string{"process", "process-basic", "statement", "ref", "instance"}

// verifyMix returns the sync programs of a mixed-3node /verify request mix:
// every built-in workload at the sizes dsload draws for /verify (stencil 8,
// 10 and 12, nested 10, 15 and 20, the others 20, 30 and 40) under the
// five verifiable schemes at X in {2,4,8}, built as the service builds them.
func verifyMix(tb testing.TB) []*codegen.SyncProgram {
	var sps []*codegen.SyncProgram
	for _, name := range service.WorkloadNames() {
		ns := []int64{20, 30, 40}
		switch name {
		case "stencil":
			ns = []int64{8, 10, 12}
		case "nested":
			ns = []int64{10, 15, 20}
		}
		for _, n := range ns {
			wl, err := service.WorkloadSpec{Name: name, N: n}.Build()
			if err != nil {
				tb.Fatal(err)
			}
			for _, s := range verifiableSchemes {
				for _, x := range []int{2, 4, 8} {
					sps = append(sps, extract(tb, wl, service.SchemeSpec{Name: s, X: x}))
				}
			}
		}
	}
	return sps
}

// compileMix returns the sync programs a /compile of every accepted Go
// corpus file under each verifiable scheme (default X) verifies.
func compileMix(tb testing.TB) []*codegen.SyncProgram {
	files, err := filepath.Glob("../../testdata/go/*.go")
	if err != nil || len(files) == 0 {
		tb.Fatalf("go corpus glob: %v (%d files)", err, len(files))
	}
	var sps []*codegen.SyncProgram
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "reject_") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		for _, lp := range frontend.Lower(filepath.Base(f), src).Loops {
			for _, s := range verifiableSchemes {
				sps = append(sps, extract(tb, lp.Workload, service.SchemeSpec{Name: s}))
			}
		}
	}
	return sps
}

func extract(tb testing.TB, wl *codegen.Workload, spec service.SchemeSpec) *codegen.SyncProgram {
	sch, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := codegen.ExtractSyncProgram(wl, sch)
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// BenchmarkStatic reports the time, bytes and allocations of one
// verify.Static call, cycling through a request mix: verify is the
// mixed-3node /verify mix, compile the accepted Go corpus. Extraction is
// outside the timed loop; materializing the per-iteration programs is
// inside it, as it is inside Static.
func BenchmarkStatic(b *testing.B) {
	for _, mix := range []struct {
		name string
		sps  func(testing.TB) []*codegen.SyncProgram
	}{{"verify", verifyMix}, {"compile", compileMix}} {
		b.Run(mix.name, func(b *testing.B) {
			sps := mix.sps(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verify.Static(sps[i%len(sps)], verify.Options{})
			}
		})
	}
}

// staticCost returns the mean allocations and heap bytes of one Static
// call over sps, each verified once.
func staticCost(sps []*codegen.SyncProgram) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sp := range sps {
		verify.Static(sp, verify.Options{})
	}
	runtime.ReadMemStats(&after)
	n := float64(len(sps))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestStaticAllocations caps the mean allocations and heap bytes of one
// Static call over each BenchmarkStatic mix, every sync program verified
// once as the service verifies it, so a map or a per-step rendering
// creeping back fails. The map-based verifier allocated 5,560.2 times and
// 606,349 bytes per call on the verify mix and 4,786.1 times and 507,005
// bytes on the compile mix. On dense tables five runs measured 212.13 to
// 212.16 allocations and 179,387 bytes (verify), 182.60 to 182.80
// allocations and 156,614 to 156,622 bytes (compile). The ceilings are the
// largest of each plus 10%.
func TestStaticAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, mix := range []struct {
		name                        string
		sps                         func(testing.TB) []*codegen.SyncProgram
		allocsCeiling, bytesCeiling float64
	}{
		{"verify", verifyMix, 233.4, 197326},
		{"compile", compileMix, 201.1, 172284},
	} {
		allocs, bytes := staticCost(mix.sps(t))
		t.Logf("%s: %.2f allocs/call, %.0f B/call", mix.name, allocs, bytes)
		if allocs > mix.allocsCeiling {
			t.Errorf("%s: %.2f allocations per call, ceiling %v", mix.name, allocs, mix.allocsCeiling)
		}
		if bytes > mix.bytesCeiling {
			t.Errorf("%s: %.0f bytes per call, ceiling %v", mix.name, bytes, mix.bytesCeiling)
		}
	}
}
