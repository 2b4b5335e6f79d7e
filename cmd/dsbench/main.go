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
// -json runs the canonical workload x scheme grid on the base machine and
// writes a BenchSnapshot ("-" for stdout): every point's deterministic
// simulator measurements. The committed BENCH_*.json files are such
// snapshots, and the newest is the engine's exact oracle
// (internal/exper's TestSnapshotMatchesNewestBaseline). -compare diffs two
// snapshots, prints a per-grid-point table naming every changed simulated
// field, and exits non-zero when any simulated field differs or a point is
// in only one snapshot. Engine speed is measured end to end by bench/dsload
// (sim.cycles_per_s, points_per_s), not here.
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
	"io"
	"os"
	"strings"
	"time"

	"github.com/csrd-repro/datasync/internal/core"
	"github.com/csrd-repro/datasync/internal/exper"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/spin"
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
			Spin: spin.Config{Watchdog: 30 * time.Second}, NewSet: v.mk}
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
	compare := flag.Bool("compare", false, "compare two snapshot files (old.json new.json), print the per-point delta table and exit non-zero on any simulated-field mismatch or one-sided point")
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
		if err := compareSnapshots(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	if *jsonOut != "" {
		if err := writeSnapshot(*jsonOut); err != nil {
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

	if *list {
		for _, e := range exper.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if !report(os.Stdout, os.Stderr, *runFlag, *md) {
		os.Exit(1)
	}
}

// report runs the experiments whose ids the comma-separated list names
// (all of them when it is empty) and writes their tables to w, as plain
// text or GitHub markdown. It reports whether every experiment ran; a
// failure is written to errw and the others still run.
func report(w, errw io.Writer, ids string, md bool) bool {
	want := map[string]bool{}
	for _, id := range strings.Split(ids, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	ok := true
	for _, e := range exper.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if md {
			fmt.Fprintf(w, "### %s: %s\n\n", e.ID, e.Title)
		} else {
			fmt.Fprintf(w, "==== %s: %s ====\n\n", e.ID, e.Title)
		}
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(errw, "%s failed: %v\n", e.ID, err)
			ok = false
			continue
		}
		for _, t := range tables {
			if md {
				fmt.Fprintln(w, t.Markdown())
			} else {
				fmt.Fprintln(w, t.Render())
			}
		}
	}
	return ok
}

// writeSnapshot measures the canonical grid and writes the JSON snapshot to
// path ("-" for stdout). A file that does not close cleanly is an error, so
// a truncated write never reports success.
func writeSnapshot(path string) error {
	snap, err := exper.Snapshot()
	if err != nil {
		return err
	}
	if path == "-" {
		return encodeSnapshot(os.Stdout, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encodeSnapshot(f, snap)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dsbench: wrote %d records to %s\n", len(snap.Records), path)
	return nil
}

func encodeSnapshot(w io.Writer, snap *exper.BenchSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// compareSnapshots loads two snapshot files, prints the delta table and
// fails on any simulated-field mismatch or any point in only one snapshot.
func compareSnapshots(oldPath, newPath string) error {
	oldSnap, err := exper.LoadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := exper.LoadSnapshot(newPath)
	if err != nil {
		return err
	}
	res := exper.Compare(oldSnap, newSnap)
	fmt.Print(res.Report)
	return res.Gate()
}

// fatal prints a one-line diagnostic through the renderer shared with
// dsserve/dssim and exits non-zero.
func fatal(err error) {
	service.Fatal(os.Stderr, "dsbench", err)
	os.Exit(1)
}
