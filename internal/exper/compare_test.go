package exper

import (
	"math"
	"strings"
	"testing"
)

// mkSnap builds a synthetic snapshot: each point's cycles and wall time, on a
// host whose calibration loop took calib nanoseconds.
func mkSnap(calib int64, points ...BenchRecord) *BenchSnapshot {
	return &BenchSnapshot{Version: SnapshotVersion, Go: "gotest", CalibNanos: calib, Records: points}
}

func pt(w, s string, p int, cycles, wall int64) BenchRecord {
	return BenchRecord{Workload: w, Scheme: s, Processors: p, Cycles: cycles, WallNanos: wall}
}

func TestCompareIdenticalPasses(t *testing.T) {
	a := mkSnap(100, pt("w", "s", 4, 1000, 50), pt("w", "s", 8, 900, 40))
	res := Compare(a, a)
	if res.SimMismatches != 0 || res.MissingPoints != 0 {
		t.Fatalf("mismatches=%d missing=%d on self-compare", res.SimMismatches, res.MissingPoints)
	}
	if math.Abs(res.DeltaPct) > 1e-9 {
		t.Fatalf("DeltaPct = %v on self-compare, want 0", res.DeltaPct)
	}
	if err := res.Gate(10); err != nil {
		t.Fatalf("gate failed on self-compare: %v", err)
	}
}

func TestCompareGateFailsOnRegression(t *testing.T) {
	old := mkSnap(100, pt("w", "s", 4, 1000, 50))
	slow := mkSnap(100, pt("w", "s", 4, 1000, 100)) // half the throughput
	res := Compare(old, slow)
	if res.DeltaPct > -49 {
		t.Fatalf("DeltaPct = %.1f, want about -50", res.DeltaPct)
	}
	if err := res.Gate(10); err == nil {
		t.Fatal("gate passed a 50% regression")
	}
	// The same wall times on a proportionally slower host (calibration loop
	// also took 2x) must normalize away and pass.
	slowHost := mkSnap(200, pt("w", "s", 4, 1000, 100))
	if err := Compare(old, slowHost).Gate(10); err != nil {
		t.Fatalf("gate failed after host normalization: %v", err)
	}
}

func TestCompareGateToleratesSmallSlowdown(t *testing.T) {
	old := mkSnap(100, pt("w", "s", 4, 1000, 100))
	minor := mkSnap(100, pt("w", "s", 4, 1000, 105)) // ~4.8% slower
	if err := Compare(old, minor).Gate(10); err != nil {
		t.Fatalf("gate failed a within-threshold slowdown: %v", err)
	}
}

func TestCompareReportsCycleMismatch(t *testing.T) {
	old := mkSnap(100, pt("w", "s", 4, 1000, 50))
	chg := mkSnap(100, pt("w", "s", 4, 1100, 50))
	res := Compare(old, chg)
	if res.SimMismatches != 1 {
		t.Fatalf("SimMismatches = %d, want 1", res.SimMismatches)
	}
	if !strings.Contains(res.Report, "[changed: cycles]") {
		t.Fatalf("report does not flag the cycle change:\n%s", res.Report)
	}
	if err := res.Gate(10); err == nil {
		t.Fatal("gate passed a cycle mismatch")
	}
}

// TestCompareGateFailsOnAnySimulatedField doctors one non-cycle simulated
// field at a time, with identical cycles and wall times: the exact gate
// must fail on each and name the field.
func TestCompareGateFailsOnAnySimulatedField(t *testing.T) {
	base := BenchRecord{Workload: "w", Scheme: "s", Processors: 4, Iterations: 40, SerialCycles: 800,
		Cycles: 300, Speedup: 2.5, Utilization: 0.6, SyncOps: 120, WaitSync: 30, BusTx: 90, Polls: 7,
		SyncVars: 8, StorageWords: 8, WallNanos: 50}
	old := mkSnap(100, base)
	if res := Compare(old, old); res.SimMismatches != 0 || res.Gate(10) != nil {
		t.Fatalf("self-compare: %d mismatches, gate %v", res.SimMismatches, res.Gate(10))
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
		res := Compare(old, mkSnap(100, rec))
		if res.SimMismatches != 1 || !strings.Contains(res.Report, "[changed: "+field+"]") {
			t.Errorf("%s: %d mismatches, report:\n%s", field, res.SimMismatches, res.Report)
		}
		if err := res.Gate(10); err == nil {
			t.Errorf("%s: gate passed a doctored simulated field", field)
		}
	}
}

func TestCompareGateFailsOnMissingPoints(t *testing.T) {
	old := mkSnap(100, pt("w", "s", 4, 1000, 50), pt("w", "s", 8, 900, 40))
	sub := mkSnap(100, pt("w", "s", 4, 1000, 50))
	res := Compare(old, sub)
	if res.MissingPoints != 1 {
		t.Fatalf("MissingPoints = %d, want 1", res.MissingPoints)
	}
	if err := res.Gate(10); err == nil {
		t.Fatal("gate passed with a grid point missing")
	}
}

func TestCompareUntimedSnapshotsCannotGate(t *testing.T) {
	// v1 snapshots carried no wall times; the gate must refuse rather than
	// silently pass.
	old := mkSnap(0, BenchRecord{Workload: "w", Scheme: "s", Processors: 4, Cycles: 1000})
	res := Compare(old, old)
	if !math.IsNaN(res.DeltaPct) {
		t.Fatalf("DeltaPct = %v for untimed snapshots, want NaN", res.DeltaPct)
	}
	if err := res.Gate(10); err == nil {
		t.Fatal("gate passed untimed snapshots")
	}
}

func TestCalibrateReturnsPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop in -short mode")
	}
	if c := Calibrate(); c <= 0 {
		t.Fatalf("Calibrate() = %d, want > 0", c)
	}
}
