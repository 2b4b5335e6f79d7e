// Quickstart: execute the paper's Fig 2.1 loop as a Doacross over real
// goroutines with the improved process-oriented primitives (load_index /
// mark_PC / wait_PC / transfer_PC) on X folded process counters: the
// program of Fig 4.2b that codegen emits, run by codegen.RunGoroutines.
// The result is checked against the loop executed serially here.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/workloads"
)

const (
	n     = 5000
	x     = 8 // folded process counters
	procs = 4
)

// serial runs the Fig 2.1 loop in order over the workload's initial data
// (A[i] = 1000+i) and returns A[-3..n+3] and OUT[1..n].
func serial() (a, out []int64) {
	a = make([]int64, n+7) // a[k] holds A[k-3]
	for k := range a {
		a[k] = 1000 + int64(k) - 3
	}
	out = make([]int64, n+1)
	for i := int64(1); i <= n; i++ {
		a[i+6] = 10*i + 3 // S1: A[I+3] = 10*I+3
		t2 := a[i+4]      // S2: t2 = A[I+1]
		t3 := a[i+5]      // S3: t3 = A[I+2]
		a[i+3] = t2 + t3  // S4: A[I] = t2+t3
		out[i] = a[i+2]   // S5: OUT[I] = A[I-1]
	}
	return a, out
}

func main() {
	start := time.Now()
	mem, err := codegen.RunGoroutines(workloads.Fig21(n, 1), codegen.ProcessOriented{X: x, Improved: true}, procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	wantA, wantOut := serial()
	a, out := mem.Lookup("A"), mem.Lookup("OUT")
	for k, want := range wantA {
		if i := int64(k) - 3; a.Get(i) != want {
			fmt.Printf("MISMATCH: A[%d] = %d, want %d\n", i, a.Get(i), want)
			os.Exit(1)
		}
	}
	for i := int64(1); i <= n; i++ {
		if out.Get(i) != wantOut[i] {
			fmt.Printf("MISMATCH: OUT[%d] = %d, want %d\n", i, out.Get(i), wantOut[i])
			os.Exit(1)
		}
	}
	fmt.Printf("Doacross of the Fig 2.1 loop: %d iterations on %d goroutines, X=%d PCs\n", n, procs, x)
	fmt.Printf("all %d array elements match serial execution\n", len(wantA)+n)
	fmt.Printf("elapsed: %v\n", elapsed)
}
