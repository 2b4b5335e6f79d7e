// Command dsgraph parses a DO-loop program in the package lang syntax,
// prints its data dependence graph (all arcs, the loop-independent subset,
// and the minimal enforced set after covering elimination), and shows the
// synchronization code a chosen scheme would generate for one iteration.
//
//	dsgraph loop.do                  # dependence analysis of the file
//	dsgraph -iter 10 loop.do         # also print iteration 10's program
//	dsgraph -scheme statement ...    # statement-oriented instead of process
//	dsgraph -enforced loop.do        # only the minimal enforced arc set
//	dsgraph -dot loop.do | dot -Tsvg # Graphviz: enforced solid, covered dashed
//	echo 'DO I = 1, 9 ...' | dsgraph # read from stdin with "-"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/csrd-repro/datasync/internal/deps"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/sim"
)

func main() {
	iter := flag.Int64("iter", 0, "print the generated program for this iteration (0: skip)")
	schemeName := flag.String("scheme", "process", "scheme for -iter: process, process-basic, statement, ref, instance")
	x := flag.Int("x", 4, "number of process counters (process schemes)")
	enfOnly := flag.Bool("enforced", false, "print only the minimal enforced arc set, one arc per line")
	dot := flag.Bool("dot", false, "emit the linearized graph in Graphviz DOT: enforced arcs solid, eliminated dashed")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dsgraph [flags] <file.do | ->")
		os.Exit(2)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	w, err := lang.Parse(src)
	if err != nil {
		fatal(err)
	}

	if *enfOnly || *dot {
		lin := w.Nest.LinearGraph()
		enforced := lin.Enforced()
		if w.Nest.HasBranches() {
			enforced = lin.Deduped()
		}
		if *dot {
			printDOT(lin, enforced)
		} else {
			for _, a := range enforced {
				fmt.Printf("%s -%s(%d)-> %s\n", lin.Stmts[a.Src].Name, a.Kind, a.Dist[0], lin.Stmts[a.Dst].Name)
			}
		}
		return
	}

	fmt.Printf("loop: %d level(s), %d iterations, %d statements\n\n",
		w.Nest.Depth(), w.Nest.Iterations(), len(w.Nest.Stmts()))

	g := w.Nest.Analyze()
	fmt.Println("dependence graph (distance vectors):")
	fmt.Print(g)

	lin := w.Nest.LinearGraph()
	fmt.Println("\nlinearized (coalesced lpid) cross-iteration arcs:")
	for _, a := range lin.CrossArcs() {
		fmt.Printf("%s -%s(%d)-> %s\n", g.Stmts[a.Src].Name, a.Kind, a.Dist[0], g.Stmts[a.Dst].Name)
	}
	enforced := lin.Enforced()
	if w.Nest.HasBranches() {
		enforced = lin.Deduped()
		fmt.Println("\nenforced set (deduplicated; covering disabled for branching bodies):")
	} else {
		fmt.Println("\nenforced set after covering elimination:")
	}
	for _, a := range enforced {
		fmt.Printf("%s -%s(%d)-> %s\n", g.Stmts[a.Src].Name, a.Kind, a.Dist[0], g.Stmts[a.Dst].Name)
	}
	if unknown := g.UnknownArcs(); len(unknown) > 0 {
		fmt.Println("\nWARNING: dependences without constant distance (not enforceable):")
		for _, a := range unknown {
			fmt.Printf("%s -%s(?%s)-> %s  (%s vs %s: %s)\n",
				g.Stmts[a.Src].Name, a.Kind, a.Reason, g.Stmts[a.Dst].Name,
				a.SrcRef, a.DstRef, a.Reason.Explain())
		}
	}

	if *iter > 0 {
		sch, err := service.SchemeSpec{Name: *schemeName, X: *x}.Build()
		if err != nil {
			fatal(err)
		}
		m := sim.New(sim.Config{Processors: 2})
		w.Setup(m.Mem())
		prog, foot, err := sch.Instrument(m, w)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s program for iteration %d (%d sync vars):\n", sch.Name(), *iter, foot.SyncVars)
		for i, op := range prog(nil, *iter) {
			fmt.Printf("%3d. %s\n", i+1, m.Render(op.Tag))
		}
	}
}

// printDOT renders the linearized dependence graph for Graphviz: the
// minimal enforced arcs solid, covering-eliminated cross arcs dashed, and
// loop-independent arcs dotted (enforced by body order, not by sync).
func printDOT(lin *deps.Graph, enforced []deps.Arc) {
	inEnf := make(map[string]bool, len(enforced))
	for _, a := range enforced {
		inEnf[fmt.Sprintf("%d|%d|%d", a.Src, a.Dst, a.Dist[0])] = true
	}
	fmt.Println("digraph deps {")
	fmt.Println("  rankdir=TB;")
	fmt.Println("  node [shape=box, fontname=\"monospace\"];")
	for _, s := range lin.Stmts {
		fmt.Printf("  %q;\n", s.Name)
	}
	for _, a := range lin.Deduped() {
		attrs := "style=dashed, color=gray50, fontcolor=gray50"
		if inEnf[fmt.Sprintf("%d|%d|%d", a.Src, a.Dst, a.Dist[0])] {
			attrs = "style=solid"
		}
		fmt.Printf("  %q -> %q [label=\"%s(%d)\", %s];\n",
			lin.Stmts[a.Src].Name, lin.Stmts[a.Dst].Name, a.Kind, a.Dist[0], attrs)
	}
	seen := make(map[[2]int]bool)
	for _, a := range lin.Arcs {
		if !a.Known || !a.LoopIndep || a.Src == a.Dst || seen[[2]int{a.Src, a.Dst}] {
			continue
		}
		seen[[2]int{a.Src, a.Dst}] = true
		fmt.Printf("  %q -> %q [label=\"%s(0)\", style=\"dotted\", color=gray30];\n",
			lin.Stmts[a.Src].Name, lin.Stmts[a.Dst].Name, a.Kind)
	}
	fmt.Println("}")
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsgraph:", err)
	os.Exit(1)
}
