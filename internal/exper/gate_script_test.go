package exper

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchGateScript exercises scripts/bench_gate.sh end to end against the
// committed BENCH_*.json baseline: an identical "fresh" snapshot must pass,
// while a doctored snapshot with one point's sync-op count changed (wall
// times untouched) and one with every wall time inflated past the threshold
// must each make the script exit non-zero. BENCH_GATE_FRESH substitutes the
// doctored file for the measurement step, so the test never re-runs the grid.
func TestBenchGateScript(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go run in -short mode")
	}
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("bash not available")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(root, "scripts", "bench_gate.sh")
	if _, err := os.Stat(script); err != nil {
		t.Fatalf("gate script missing: %v", err)
	}
	baselines, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(baselines) == 0 {
		t.Fatalf("no committed BENCH_*.json baseline (err=%v)", err)
	}
	data, err := os.ReadFile(baselines[len(baselines)-1])
	if err != nil {
		t.Fatal(err)
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	run := func(freshPath string) error {
		cmd := exec.Command("bash", script)
		cmd.Dir = root
		cmd.Env = append(os.Environ(),
			"BENCH_GATE_FRESH="+freshPath,
			"BENCH_GATE_OUT="+filepath.Join(dir, "delta.txt"),
			"GATE_PCT=10")
		out, err := cmd.CombinedOutput()
		t.Logf("bench_gate.sh output:\n%s", out)
		return err
	}

	// Identical snapshot: gate must pass.
	same := filepath.Join(dir, "same.json")
	if err := os.WriteFile(same, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(same); err != nil {
		t.Fatalf("gate failed on an identical snapshot: %v", err)
	}

	// Doctored snapshot: one point's simulated sync-op count differs, every
	// wall time is identical — the exact gate must still fail.
	var sim BenchSnapshot
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	sim.Records[0].SyncOps++
	simData, err := json.Marshal(&sim)
	if err != nil {
		t.Fatal(err)
	}
	simBad := filepath.Join(dir, "doctored-sim.json")
	if err := os.WriteFile(simBad, simData, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(simBad)
	if err == nil {
		t.Fatal("bench_gate.sh exited zero on a doctored simulated field")
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("script did not run to a non-zero exit: %v", err)
	}

	// Doctored snapshot: every point 25% slower (>10% threshold) — the
	// script must exit non-zero.
	for i := range snap.Records {
		snap.Records[i].WallNanos = snap.Records[i].WallNanos * 5 / 4
	}
	doctored, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "doctored.json")
	if err := os.WriteFile(bad, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(bad)
	if err == nil {
		t.Fatal("bench_gate.sh exited zero on a >10% doctored regression")
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("script did not run to a non-zero exit: %v", err)
	}
}
