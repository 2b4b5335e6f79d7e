package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This benchmark runs on a virtual machine that shares its host. Two
// things outside the program move its timings, each by up to a factor of
// two over minutes:
//
//   - steal: the hypervisor runs another guest while one of ours wants a
//     CPU. The guest kernel counts this time per CPU in /proc/stat, and
//     the process's own CPU time excludes it.
//   - contention for the cores' shared parts (a busy sibling hyperthread,
//     the caches): a CPU-second does less work. Nothing counts this, so a
//     fixed reference kernel measures it.
//
// Every timed end-to-end metric is therefore reported at a reference
// speed: a phase's elapsed time is multiplied by the share of the CPU time
// the machine asked for that it got (stolen time removed) and by the
// reference kernel's speed per CPU-second relative to refRate. Stolen time
// can only be taken out of totals, not out of single requests, so latency
// is reported as a mean over requests sent one at a time.

// cpuStat is the machine's CPU accounting from /proc/stat, in ticks summed
// over CPUs.
type cpuStat struct{ busy, steal float64 }

// readCPUStat reads the aggregate "cpu" line. Without it (not Linux, or a
// kernel that does not count steal) both fields stay 0 and got reports 1.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// got is the share of the CPU time the machine asked for between a and b
// that it was given: busy over busy plus stolen, 1 when nothing was counted.
func got(a, b cpuStat) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}

// refRate is the reference kernel's steps per CPU-second on the 2-vCPU
// Xeon host the bounds were set on, with both CPUs running it and no
// neighbour contending. A speed of 1 means a CPU-second did as much work as
// it did then.
const refRate = 20000

// calibrator runs the reference kernel: it validates a fixed JSON document
// and sorts a fixed slice, using only the standard library, so no change to
// the code under test changes it, and without allocating, so the servers'
// heap does not reach it through the collector.
type calibrator struct {
	doc  []byte
	keys []int
}

func newCalibrator() *calibrator {
	var b strings.Builder
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	b.WriteString("[")
	for i := 0; i < 48; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"workload":{"name":"w%d","n":%d,"cost":%d},"scheme":{"name":"s%d","x":%d},"config":{"p":%d},"cycles":%d,"speedup":%.4f,"tags":["a","bb",null,true]}`,
			next()%5, next()%120, next()%8, next()%6, next()%16, next()%8, next(), float64(next()%10000)/997)
	}
	b.WriteString("]")
	c := &calibrator{doc: []byte(b.String()), keys: make([]int, 1024)}
	for i := range c.keys {
		c.keys[i] = int(next())
	}
	return c
}

// speed runs the kernel for d on one goroutine per CPU, each locked to its
// thread, and returns the steps done per CPU-second of those threads over
// refRate. Thread CPU time leaves out stolen time and the time the threads
// waited for the process's other work, so only how fast a CPU-second
// is remains.
func (c *calibrator) speed(d time.Duration) float64 {
	procs := runtime.GOMAXPROCS(0)
	steps := make([]int, procs)
	cpu := make([]time.Duration, procs)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPU()
			buf := make([]int, len(c.keys))
			for time.Now().Before(deadline) {
				if !json.Valid(c.doc) {
					panic("calibrator: invalid reference document")
				}
				copy(buf, c.keys)
				sort.Ints(buf)
				steps[i]++
			}
			cpu[i] = threadCPU() - start
		}(i)
	}
	wg.Wait()
	var n int
	var t time.Duration
	for i := range steps {
		n += steps[i]
		t += cpu[i]
	}
	if t <= 0 {
		return 1
	}
	return float64(n) / t.Seconds() / refRate
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
