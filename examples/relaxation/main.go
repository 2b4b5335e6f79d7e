// Relaxation (Example 1): run the four-point relaxation
//
//	DO I=2,N; DO J=2,N:  A[I,J] = A[I-1,J] + A[I,J-1]
//
// two ways on real goroutines — as a wavefront with a barrier between
// anti-diagonal fronts (Fig 5.1c), and as an asynchronous pipeline where
// each row is a process synchronizing with its predecessor row every G
// columns through process counters (Fig 5.1b/d): the stencil workload under
// codegen's PipelinedOuter scheme, run by codegen.RunGoroutines. Both are
// verified against serial execution and their wall-clock times printed.
//
//	go run ./examples/relaxation
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/csrd-repro/datasync/internal/barrier"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/workloads"
)

const (
	n       = 600 // grid is (n-1) x (n-1) interior cells
	g       = 8   // columns per synchronization point
	workers = 4
)

type grid [][]int64

func newGrid() grid {
	a := make(grid, n+1)
	for i := range a {
		a[i] = make([]int64, n+1)
	}
	for i := int64(1); i <= n; i++ {
		a[i][1] = 3*i + 1
		a[1][i] = i
	}
	return a
}

func serial() grid {
	a := newGrid()
	for i := 2; i <= n; i++ {
		for j := 2; j <= n; j++ {
			a[i][j] = a[i-1][j] + a[i][j-1]
		}
	}
	return a
}

func equal(x, y grid) bool {
	for i := range x {
		for j := range x[i] {
			if x[i][j] != y[i][j] {
				return false
			}
		}
	}
	return true
}

// pipeline runs rows as Doacross processes over process counters, each
// publishing its progress every g columns. Its time includes what
// RunGoroutines does around the run: building the program and checking
// the result against the workload's serial image.
func pipeline() (grid, time.Duration, error) {
	start := time.Now()
	mem, err := codegen.RunGoroutines(workloads.Stencil(n, 1), codegen.PipelinedOuter{X: 2 * workers, G: g}, workers)
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	a, res := newGrid(), mem.LookupGrid("A")
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a[i][j] = res.Get(i, j)
		}
	}
	return a, elapsed, nil
}

// wavefront computes anti-diagonal fronts separated by a PC butterfly
// barrier. Work inside a front is dealt round-robin to the workers.
func wavefront() (grid, time.Duration) {
	a := newGrid()
	b := barrier.NewPCButterfly(workers)
	start := time.Now()
	var wg sync.WaitGroup
	for pid := 0; pid < workers; pid++ {
		pid := pid
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 4; s <= 2*n; s++ { // front: i+j = s
				c := 0
				for i := 2; i <= n; i++ {
					j := s - i
					if j < 2 || j > n {
						continue
					}
					if c%workers == pid {
						a[i][j] = a[i-1][j] + a[i][j-1]
					}
					c++
				}
				if err := b.Await(pid); err != nil {
					panic(err) // no watchdog armed: cannot happen
				}
			}
		}()
	}
	wg.Wait()
	return a, time.Since(start)
}

func main() {
	if w := workers & (workers - 1); w != 0 {
		fmt.Fprintln(os.Stderr, "workers must be a power of two for the butterfly barrier")
		os.Exit(2)
	}
	want := serial()

	pipeGrid, pipeTime, err := pipeline()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
	if !equal(pipeGrid, want) {
		fmt.Println("MISMATCH: pipelined relaxation diverged from serial")
		os.Exit(1)
	}
	waveGrid, waveTime := wavefront()
	if !equal(waveGrid, want) {
		fmt.Println("MISMATCH: wavefront relaxation diverged from serial")
		os.Exit(1)
	}

	fronts := 2*n - 3
	fmt.Printf("relaxation %dx%d interior, %d workers\n", n-1, n-1, workers)
	fmt.Printf("async pipeline (PCs, G=%d): %v   sync points/process: %d\n", g, pipeTime, (n-2)/g+1)
	fmt.Printf("wavefront + butterfly barrier: %v   barrier episodes: %d\n", waveTime, fronts)
	fmt.Println("both match serial execution")
}
