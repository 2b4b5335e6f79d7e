// Nested Doacross (Example 2): execute the multiply-nested loop
//
//	DO I=1,N; DO J=1,M
//	  S1: A[I,J]   = I*100+J
//	  S2: B[I,J]   = A[I,J-1] + 1
//	  S3: OUT[I,J] = B[I-1,J-1] * 2
//
// by implicitly coalescing the nest: each (I,J) becomes the process with
// linearized pid (I-1)*M + J, the dependences become lpid distances 1
// (S1->S2) and M+1 (S2->S3), and no loop-boundary tests are needed —
// exactly Fig 5.2b. The coalesced program runs on goroutines through
// codegen.RunGoroutines and is checked against the nest executed serially
// here.
//
//	go run ./examples/nested
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/workloads"
)

const (
	nI = 120
	nJ = 80
)

type mat [][]int64

func newMat() mat {
	m := make(mat, nI+1)
	for i := range m {
		m[i] = make([]int64, nJ+1)
	}
	return m
}

// serial runs the nest in order over the workload's boundary data.
func serial() (a, b, out mat) {
	a, b, out = newMat(), newMat(), newMat()
	for i := 0; i <= nI; i++ {
		a[i][0] = -int64(i)
		b[i][0] = 7 * int64(i)
	}
	for j := 0; j <= nJ; j++ {
		b[0][j] = 7000 + int64(j)
	}
	for i := int64(1); i <= nI; i++ {
		for j := int64(1); j <= nJ; j++ {
			a[i][j] = i*100 + j
			b[i][j] = a[i][j-1] + 1
			out[i][j] = b[i-1][j-1] * 2
		}
	}
	return a, b, out
}

func main() {
	start := time.Now()
	mem, err := codegen.RunGoroutines(workloads.Nested(nI, nJ, 1), codegen.ProcessOriented{X: 8, Improved: true}, 4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	wantA, wantB, wantOut := serial()
	a, b, out := mem.LookupGrid("A"), mem.LookupGrid("B"), mem.LookupGrid("OUT")
	for i := int64(1); i <= nI; i++ {
		for j := int64(1); j <= nJ; j++ {
			if a.Get(i, j) != wantA[i][j] || b.Get(i, j) != wantB[i][j] || out.Get(i, j) != wantOut[i][j] {
				fmt.Printf("MISMATCH at (%d,%d)\n", i, j)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("coalesced %dx%d nest = %d processes, lpid distances 1 and %d\n",
		nI, nJ, nI*nJ, nJ+1)
	fmt.Println("all three arrays match serial execution (no boundary tests needed)")
	fmt.Printf("elapsed: %v\n", elapsed)
}
