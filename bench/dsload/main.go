// Command dsload is the end-to-end benchmark of the dsserve request path.
// It boots an in-process dsserve stack of one or three nodes, drives it
// over loopback TCP with requests generated from a seed, checks every
// answer, and prints every metric by name and unit; the last line of its
// standard output is one JSON result:
//
//	dsload -workload run-hot -seed 1 [-seconds 20] [-trace 1 [-trace-out trace.json]]
//
// With -trace 0 it prints the end-to-end metrics, with -trace 1 the
// per-layer ones from a traced run. BENCHMARK.json at the repository root
// lists both sets, the workloads and the regression bounds; bench/README.md
// explains them. A second form compares two directories of run outputs
// named <workload>.<seed>.json against those bounds:
//
//	dsload -compare dirA dirB
//
// The exit status is 0 for a correct run (or a comparison without a
// regression) and 1 otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: run-hot, run-cold, sweep-3node or mixed-3node")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1: make a traced run and print the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the per-route breakdown and sample span trees to this file")
	cmp := fs.Bool("compare", false, "compare two directories of run outputs: dsload -compare dirA dirB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "dsload:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dsload: -compare takes two directories")
			return 2
		}
		bf, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(stderr, "dsload:", err)
			return 1
		}
		regressed, err := compare(bf, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "dsload:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "dsload: need -workload run-hot|run-cold|sweep-3node|mixed-3node, -seconds >= 1 and -trace 0|1")
		return 2
	}
	cfg := config{
		w: w, seed: *seed, seconds: float64(*seconds), traced: *traced == 1,
		traceOut: *traceOut, root: root, scale: 1, setups: 5, log: stderr,
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "dsload:", err)
		return 1
	}
	printResult(res, stdout, stderr)
	if !res.Correct {
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	w        workload
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	root     string
	scale    float64 // multiplies offered rates and closed-loop ceilings
	setups   int     // set-ups made; setup_s is their median
	log      io.Writer
	doctor   func(o *op, body []byte) []byte
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute makes one run: set-ups, warm-up, measured phases, oracles.
func execute(cfg config) (*result, error) {
	ph := phasesFor(cfg.w, cfg.seconds, cfg.traced)
	var corp *corpus
	var tr *tracer
	var wrap func(string, http.Handler) http.Handler
	if cfg.traced {
		tr = newTracer()
		wrap = tr.wrap
	}

	cal := newCalibrator()
	var st *stack
	var p *plan
	var chk *checker
	var lg *loadgen
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			lg.close()
			st.close()
		}
		// Each set-up starts from a collected heap, so that garbage from
		// the one before does not decide whether a collection lands in
		// this one's timing.
		runtime.GC()
		speed := cal.speed(cfg.calSlice())
		c0, start := readCPUStat(), time.Now()
		var err error
		if st, err = boot(cfg.w.nodes, wrap); err != nil {
			return nil, err
		}
		if cfg.w.name == "mixed-3node" {
			if corp, err = loadCorpus(cfg.root); err != nil {
				st.close()
				return nil, err
			}
		}
		if p, err = generate(cfg.w, cfg.seed, ph, cfg.scale, corp); err != nil {
			st.close()
			return nil, err
		}
		chk = newChecker(p.refs)
		chk.doctor = cfg.doctor
		lg = newLoadgen(st.bases, chk)
		lg.prewarm(p.prewarm)
		setups = append(setups, time.Since(start).Seconds()*got(c0, readCPUStat())*speed)
	}
	defer st.close()
	defer lg.close()
	if n := chk.failed.Load(); n > 0 {
		return nil, fmt.Errorf("set-up: %d pre-warm answers failed: %s", n, strings.Join(chk.errs, "; "))
	}

	// An open-loop measurement is warmed up at its own rate; a closed-loop
	// one at full load, so that caches and the heap reach their steady
	// state before the first window.
	var cursor atomic.Int64
	if ph.open > 0 {
		lg.runOpen(p.warm, 0, nil)
	} else {
		lg.runClosed(p.closed, &cursor, ph.warm, p.cyclic, lg.senders, nil)
	}

	m := make(map[string]float64)
	if cfg.traced {
		trun, err := tracedPhases(cfg, ph, p, lg, st, tr, cal, &cursor)
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		m = trun.layerMetrics(spans)
		if cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, cfg.w.name, cfg.seed, trun.breakdown(spans), trees(spans, trun.traced.kept, 5)); err != nil {
				return nil, err
			}
		}
	} else {
		windowed(cfg, ph, p, lg, cal, &cursor, m)
		if int(cursor.Load()) >= len(p.closed) && !p.cyclic {
			fmt.Fprintf(cfg.log, "dsload: the closed loop used all %d generated requests before its time was up\n", len(p.closed))
		}
		m["setup_s"] = median(setups)
	}

	chk.runDeep()
	attempted, failed := chk.attempted.Load(), chk.failed.Load()
	if !cfg.traced {
		m["success_rate"] = 1 - float64(failed)/float64(attempted)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m["peak_rss_mb"] = rss
	}
	for _, e := range chk.errs {
		fmt.Fprintln(cfg.log, "dsload: FAIL", e)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	return res, nil
}

// windowed runs the measurement of an untraced run in windows of half a
// second. A window's first half sends one request at a time (latency), its
// second half keeps nproc requests in flight (capacity). Each half's
// elapsed time is scaled to the reference speed: stolen time is taken out,
// and the rest multiplied by the reference kernel's speed over the
// window's two brackets (see calibrate.go). A metric is the total of its
// work over the total of its scaled time. The host's speed moves within a
// second, so short windows, each bracketed by the kernel, follow it more
// closely than long ones; a median over windows lost to the total in
// runs over ten seeds.
func windowed(cfg config, ph phases, p *plan, lg *loadgen, cal *calibrator, cursor *atomic.Int64, m map[string]float64) {
	n := min(max(int(2*cfg.seconds), 1), 40)
	half := ph.closed / time.Duration(2*n)
	var oneMs, oneDone, busyS, busyDone, busyPoints float64
	var gots []float64
	speeds := []float64{cal.speed(cfg.calSlice())}
	for k := 0; k < n; k++ {
		c0 := readCPUStat()
		one := lg.runClosed(p.closed, cursor, half, p.cyclic, 1, nil)
		c1 := readCPUStat()
		busy := lg.runClosed(p.closed, cursor, half, p.cyclic, lg.senders, nil)
		c2 := readCPUStat()
		speeds = append(speeds, cal.speed(cfg.calSlice()))
		speed := (speeds[k] + speeds[k+1]) / 2
		oneMs += ms(one.elapsed) * got(c0, c1) * speed
		oneDone += float64(one.done)
		busyS += busy.elapsed.Seconds() * got(c1, c2) * speed
		busyDone += float64(busy.done)
		busyPoints += float64(busy.points)
		gots = append(gots, got(c0, c2))
	}
	m["latency_mean_ms"] = oneMs / oneDone
	m["capacity_rps"] = busyDone / busyS
	m["points_per_s"] = busyPoints / busyS
	fmt.Fprintf(cfg.log, "dsload: reference kernel speed %.3f, share of CPU time not stolen %.3f (medians over the run)\n",
		median(speeds), median(gots))
}

// calSlice is how long one run of the reference kernel lasts: a two
// hundredth of the measured time, at most 100 ms.
func (cfg config) calSlice() time.Duration {
	return min(100*time.Millisecond, time.Duration(cfg.seconds*float64(time.Second))/200)
}

// tracedPhases runs the measurement of a traced run: an untraced half
// (the reference for the tracing overhead), a traced half with server
// spans and /metrics scrapes, then the replay of a sample.
func tracedPhases(cfg config, ph phases, p *plan, lg *loadgen, st *stack, tr *tracer, cal *calibrator, cursor *atomic.Int64) (*traceRun, error) {
	trun := &traceRun{}
	speed := cal.speed(cfg.calSlice())
	c0 := readCPUStat()
	var traced func() phaseResult
	if cfg.w.rate > 0 {
		half := ph.open / 2
		split := sort.Search(len(p.open), func(i int) bool { return p.open[i].at >= half })
		trun.ref = lg.runOpen(p.open[:split], 0, nil)
		traced = func() phaseResult { return lg.runOpen(p.open[split:], half, tr) }
	} else {
		half := ph.closed / 2
		trun.ref = lg.runClosed(p.closed, cursor, half, false, lg.senders, nil)
		traced = func() phaseResult { return lg.runClosed(p.closed, cursor, ph.closed-half, false, lg.senders, tr) }
	}
	scr, err := startScraper(st.bases)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	trun.traced = traced()
	tr.on.Store(false)
	if err := scr.finish(); err != nil {
		return nil, err
	}
	trun.stolen = 1 - got(c0, readCPUStat())
	trun.speed = (speed + cal.speed(cfg.calSlice())) / 2
	trun.scr = scr
	tr.add(trun.traced.spans...)
	if trun.rp, err = replay(tr, trun.traced.kept, cfg.seed); err != nil {
		return nil, err
	}
	if trun.redundant, err = redundantShare(trun.traced.kept); err != nil {
		return nil, err
	}
	return trun, nil
}

// printResult writes a readable table to stderr and the JSON result as
// the last line of stdout.
func printResult(res *result, stdout, stderr io.Writer) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	b, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Fprintln(stdout, string(b))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// repoRoot finds the repository the benchmark measures: the nearest
// directory at or above the working directory whose go.mod declares the
// datasync module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module github.com/csrd-repro/datasync\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no datasync repository at or above the working directory")
		}
		dir = parent
	}
}
