package exper

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// newestBaseline returns the BENCH_<n>.json in dir with the largest n,
// compared as a number, so BENCH_10.json is newer than BENCH_9.json.
func newestBaseline(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, p := range paths {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err == nil && n > bestN {
			best, bestN = p, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json in %s", dir)
	}
	return best, nil
}

// TestSnapshotMatchesNewestBaseline is the engine's exact oracle: a fresh
// snapshot of the 42-point grid must equal the newest committed
// BENCH_<n>.json on all eleven simulated fields of every point, with no
// point missing on either side. Baselines written before v3 carry wall
// times, which LoadSnapshot ignores. A change that alters simulated results
// on purpose commits a new BENCH_<n+1>.json with it.
func TestSnapshotMatchesNewestBaseline(t *testing.T) {
	path, err := newestBaseline(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res := Compare(baseline, fresh)
	if err := res.Gate(); err != nil {
		t.Fatalf("fresh snapshot vs %s: %v\n%s", filepath.Base(path), err, res.Report)
	}
}

// TestNewestBaselineOrdersNumerically pins that BENCH_10.json is newer than
// BENCH_9.json and BENCH_4.json, which lexical order would get wrong.
func TestNewestBaselineOrdersNumerically(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_4.json", "BENCH_10.json", "BENCH_9.json", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Fatalf("newest baseline %s, want %s", got, want)
	}
	if _, err := newestBaseline(t.TempDir()); err == nil {
		t.Fatal("empty directory: no error")
	}
}
