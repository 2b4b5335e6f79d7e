// Command dsbench runs the reproduction experiments (DESIGN.md E1..E12) and
// prints their result tables. With no flags it runs everything;
// -run selects experiments by comma-separated id (e.g. -run E4,E9).
//
//	dsbench                 # all experiments
//	dsbench -run E6         # just the Example 1 relaxation study
//	dsbench -list           # list experiment ids and titles
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
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/csrd-repro/datasync/internal/exper"
	"github.com/csrd-repro/datasync/internal/service"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	md := flag.Bool("md", false, "render tables as GitHub markdown")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark snapshot to this file (\"-\" for stdout) and exit")
	compare := flag.Bool("compare", false, "compare two snapshot files (old.json new.json), print the per-point delta table and exit non-zero on any simulated-field mismatch or one-sided point")
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
