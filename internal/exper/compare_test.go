package exper

import (
	"strings"
	"testing"
)

// mkSnap builds a synthetic snapshot of the given points.
func mkSnap(points ...BenchRecord) *BenchSnapshot {
	return &BenchSnapshot{Version: SnapshotVersion, Go: "gotest", Records: points}
}

func pt(w, s string, p int, cycles int64) BenchRecord {
	return BenchRecord{Workload: w, Scheme: s, Processors: p, Cycles: cycles}
}

func TestCompareIdenticalPasses(t *testing.T) {
	a := mkSnap(pt("w", "s", 4, 1000), pt("w", "s", 8, 900))
	res := Compare(a, a)
	if res.SimMismatches != 0 || res.MissingPoints != 0 {
		t.Fatalf("mismatches=%d missing=%d on self-compare", res.SimMismatches, res.MissingPoints)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("gate failed on self-compare: %v", err)
	}
}

func TestCompareReportsCycleMismatch(t *testing.T) {
	old := mkSnap(pt("w", "s", 4, 1000))
	chg := mkSnap(pt("w", "s", 4, 1100))
	res := Compare(old, chg)
	if res.SimMismatches != 1 {
		t.Fatalf("SimMismatches = %d, want 1", res.SimMismatches)
	}
	if !strings.Contains(res.Report, "[changed: cycles]") {
		t.Fatalf("report does not flag the cycle change:\n%s", res.Report)
	}
	if err := res.Gate(); err == nil {
		t.Fatal("gate passed a cycle mismatch")
	}
}

// TestCompareGateFailsOnAnySimulatedField doctors one non-cycle simulated
// field at a time, with identical cycles: the exact gate must fail on each
// and name the field.
func TestCompareGateFailsOnAnySimulatedField(t *testing.T) {
	base := BenchRecord{Workload: "w", Scheme: "s", Processors: 4, Iterations: 40, SerialCycles: 800,
		Cycles: 300, Speedup: 2.5, Utilization: 0.6, SyncOps: 120, WaitSync: 30, BusTx: 90, Polls: 7,
		SyncVars: 8, StorageWords: 8}
	old := mkSnap(base)
	if res := Compare(old, old); res.SimMismatches != 0 || res.Gate() != nil {
		t.Fatalf("self-compare: %d mismatches, gate %v", res.SimMismatches, res.Gate())
	}
	if len(simFields) != 11 {
		t.Fatalf("%d simulated fields checked, want all 11", len(simFields))
	}
	doctor := map[string]func(r *BenchRecord){
		"iterations":     func(r *BenchRecord) { r.Iterations++ },
		"serialCycles":   func(r *BenchRecord) { r.SerialCycles++ },
		"speedup":        func(r *BenchRecord) { r.Speedup += 0.01 },
		"utilization":    func(r *BenchRecord) { r.Utilization += 0.01 },
		"syncOps":        func(r *BenchRecord) { r.SyncOps++ },
		"waitSyncCycles": func(r *BenchRecord) { r.WaitSync++ },
		"busBroadcasts":  func(r *BenchRecord) { r.BusTx++ },
		"polls":          func(r *BenchRecord) { r.Polls++ },
		"syncVars":       func(r *BenchRecord) { r.SyncVars++ },
		"storageWords":   func(r *BenchRecord) { r.StorageWords++ },
	}
	for field, f := range doctor {
		rec := base
		f(&rec)
		res := Compare(old, mkSnap(rec))
		if res.SimMismatches != 1 || !strings.Contains(res.Report, "[changed: "+field+"]") {
			t.Errorf("%s: %d mismatches, report:\n%s", field, res.SimMismatches, res.Report)
		}
		if err := res.Gate(); err == nil {
			t.Errorf("%s: gate passed a doctored simulated field", field)
		}
	}
}

func TestCompareGateFailsOnMissingPoints(t *testing.T) {
	old := mkSnap(pt("w", "s", 4, 1000), pt("w", "s", 8, 900))
	sub := mkSnap(pt("w", "s", 4, 1000))
	res := Compare(old, sub)
	if res.MissingPoints != 1 {
		t.Fatalf("MissingPoints = %d, want 1", res.MissingPoints)
	}
	if err := res.Gate(); err == nil {
		t.Fatal("gate passed with a grid point missing")
	}
	if res := Compare(sub, old); res.MissingPoints != 1 || res.Gate() == nil {
		t.Fatalf("new point: MissingPoints = %d, gate %v", res.MissingPoints, res.Gate())
	}
}
