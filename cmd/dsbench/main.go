// Command dsbench runs the reproduction experiments (DESIGN.md E1..E12) and
// prints their result tables. With no flags it runs everything;
// -run selects experiments by comma-separated id (e.g. -run E4,E9).
//
//	dsbench                 # all experiments
//	dsbench -run E6         # just the Example 1 relaxation study
//	dsbench -list           # list experiment ids and titles
//	dsbench -runtime        # goroutine-runtime waiter metrics (RunStats)
//	dsbench -json out.json  # machine-readable benchmark snapshot
//	dsbench -compare old.json new.json   # per-grid-point delta table
//
// -json measures the canonical workload x scheme grid on the base machine
// and writes a BenchSnapshot ("-" for stdout): every point's deterministic
// simulator measurements plus its best-of-repeats wall time and a host
// calibration figure. -compare diffs two snapshots and prints a
// per-grid-point delta table and the count of points whose simulated
// fields differ; with -gate N it exits non-zero when any simulated field
// differs, when a point is in only one snapshot, or when the normalized
// cycle throughput regressed by more than N percent, which is how
// scripts/bench_gate.sh turns the committed BENCH_*.json baseline into a CI
// regression gate.
//
// -runtime executes the Fig 2.1 Doacross on the real concurrent runtime —
// packed and split-field counter sets — with the metrics layer enabled and
// prints each run's RunStats: per-slot spin iterations, ownership
// hand-offs, and the wait-pause histogram. -rtn/-rtx/-rtprocs/-rtchunk
// tune the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/exper"
	"github.com/csrd-repro/datasync/internal/service"
)

// runtimeReport runs the Fig 2.1 loop body on the concurrent runtime with
// metrics enabled and prints the RunStats for both counter-set
// representations, verifying the dataflow against serial execution.
func runtimeReport(n int64, x, procs, chunk int) error {
	variants := []struct {
		name string
		mk   func(x int, o core.Options) core.CounterSet
	}{
		{"packed PCSet (padded, tiered backoff)", nil},
		{"split-field SplitPCSet (§6)", core.SplitCounters},
	}
	for _, v := range variants {
		a := make([]int64, n+5)
		out := make([]int64, n+1)
		r := core.Runner{X: x, Procs: procs, Chunk: chunk, Metrics: true,
			Watchdog: 30 * time.Second, NewSet: v.mk}
		res, err := r.Run(n, func(i int64, p *core.Proc) {
			a[i+3] = 10*i + 3 // S1, step 1
			p.Mark(1)
			p.Wait(2, 1)
			t2 := a[i+1] // S2, step 2
			p.Mark(2)
			p.Wait(1, 1)
			t3 := a[i+2] // S3, step 3
			p.Mark(3)
			p.Wait(1, 2)
			p.Wait(2, 3)
			a[i] = t2 + t3 // S4: last source
			p.Transfer()
			p.Wait(1, 4)
			out[i] = a[i-1] // S5
		})
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		for i := int64(1); i <= n; i++ {
			if want := 10*(i-1) + 3 + 10*(i-2) + 3; i > 2 && a[i] != want {
				return fmt.Errorf("%s: A[%d] = %d, want %d (dependence violated)", v.name, i, a[i], want)
			}
		}
		fmt.Printf("==== runtime: %s ====\n%s\n", v.name, res.Stats)
	}
	return nil
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	md := flag.Bool("md", false, "render tables as GitHub markdown")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark snapshot to this file (\"-\" for stdout) and exit")
	repeats := flag.Int("repeats", 3, "-json: run every grid point this many times and record the best wall time")
	compare := flag.Bool("compare", false, "compare two snapshot files (old.json new.json) and print the per-point delta table")
	gatePct := flag.Float64("gate", 0, "-compare: exit non-zero if any simulated field differs, a point is in only one snapshot, or normalized cycle throughput regressed by more than this percent (0 = report only)")
	rt := flag.Bool("runtime", false, "run the goroutine runtime with waiter metrics and print RunStats")
	rtn := flag.Int64("rtn", 100_000, "-runtime: iterations")
	rtx := flag.Int("rtx", 8, "-runtime: physical process counters (X)")
	rtprocs := flag.Int("rtprocs", 4, "-runtime: worker goroutines")
	rtchunk := flag.Int("rtchunk", 1, "-runtime: iterations claimed per dispatch")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two snapshot files, got %d args", flag.NArg()))
		}
		if err := compareSnapshots(flag.Arg(0), flag.Arg(1), *gatePct); err != nil {
			fatal(err)
		}
		return
	}

	if *jsonOut != "" {
		if err := writeSnapshot(*jsonOut, *repeats); err != nil {
			fatal(err)
		}
		return
	}

	if *rt {
		if err := runtimeReport(*rtn, *rtx, *rtprocs, *rtchunk); err != nil {
			fatal(fmt.Errorf("runtime report failed: %w", err))
		}
		return
	}

	all := exper.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*runFlag, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	failed := false
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if *md {
			fmt.Printf("### %s: %s\n\n", e.ID, e.Title)
		} else {
			fmt.Printf("==== %s: %s ====\n\n", e.ID, e.Title)
		}
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		for _, t := range tables {
			if *md {
				fmt.Println(t.Markdown())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeSnapshot measures the canonical grid and writes the JSON snapshot to
// path ("-" for stdout).
func writeSnapshot(path string, repeats int) error {
	snap, err := exper.SnapshotTimed(repeats)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "dsbench: wrote %d records to %s\n", len(snap.Records), path)
	}
	return nil
}

// compareSnapshots loads two snapshot files, prints the delta table and,
// when gatePct > 0, fails on any simulated-field mismatch, any point in
// only one snapshot, or a normalized-throughput regression beyond gatePct.
func compareSnapshots(oldPath, newPath string, gatePct float64) error {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	res := exper.Compare(oldSnap, newSnap)
	fmt.Print(res.Report)
	if gatePct > 0 {
		if err := res.Gate(gatePct); err != nil {
			return err
		}
		fmt.Printf("bench gate: PASS (threshold %.1f%%)\n", gatePct)
	}
	return nil
}

func loadSnapshot(path string) (*exper.BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap exper.BenchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Records) == 0 {
		return nil, fmt.Errorf("%s: snapshot has no records", path)
	}
	return &snap, nil
}

// fatal prints a one-line diagnostic through the renderer shared with
// dsserve/dssim and exits non-zero.
func fatal(err error) {
	service.Fatal(os.Stderr, "dsbench", err)
	os.Exit(1)
}
