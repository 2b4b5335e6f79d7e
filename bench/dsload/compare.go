package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runOutput is one run's printed result.
type runOutput struct {
	seed    int64
	metrics map[string]float64
}

// readRuns reads a directory of run outputs named <workload>.<seed>.json,
// each holding a run's standard output; the last non-empty line is the
// result.
func readRuns(dir string) (map[string][]runOutput, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]runOutput)
	for _, f := range files {
		parts := strings.Split(strings.TrimSuffix(filepath.Base(f), ".json"), ".")
		if len(parts) != 2 {
			continue
		}
		seed, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var res struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: last line: %w", f, err)
		}
		ro := runOutput{seed: seed, metrics: make(map[string]float64)}
		for k, v := range res.Metrics {
			ro.metrics[k] = v.Value
		}
		out[parts[0]] = append(out[parts[0]], ro)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].seed < rs[j].seed })
	}
	return out, nil
}

// verdictRow is one metric's comparison on one workload.
type verdictRow struct {
	aQ1, aMed, aQ3 float64
	bQ1, bMed, bQ3 float64
	won, pairs     int
	verdict        string
}

// verdict applies the benchmark's rule for one metric on one workload.
// a is the parent's runs and b the change's, paired in seed order.
// improved: b wins at least 9 pairs in 10 and the medians differ, in b's
// favour, by more than a's interquartile range. regressed: b's median is
// worse than a's by more than bound (a share of a's median). unresolved:
// a's own spread is wider than the bound, unless every run of b reads
// better than every run of a. unchanged otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) verdictRow {
	var r verdictRow
	r.aQ1, r.aMed, r.aQ3 = quartiles(a)
	r.bQ1, r.bMed, r.bQ3 = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	r.pairs = min(len(a), len(b))
	for i := 0; i < r.pairs; i++ {
		if better(b[i], a[i]) {
			r.won++
		}
	}
	gain := r.bMed - r.aMed
	if lowerBetter {
		gain = -gain
	}
	worse := 0.0
	if r.aMed != 0 {
		worse = -gain / math.Abs(r.aMed)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case r.pairs > 0 && float64(r.won) >= 0.9*float64(r.pairs) && gain > r.aQ3-r.aQ1:
		r.verdict = "improved"
	case worse > bound:
		r.verdict = "regressed"
	case r.aMed != 0 && (r.aQ3-r.aQ1)/math.Abs(r.aMed) > bound && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// compare prints, per workload and end-to-end metric, both sides' median
// and quartiles, the share of pairs the change (dirB) won and the verdict.
// It reports whether any metric regressed.
func compare(bf *benchmarkFile, dirA, dirB string, w io.Writer) (bool, error) {
	ra, err := readRuns(dirA)
	if err != nil {
		return false, err
	}
	rb, err := readRuns(dirB)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-12s %-16s %28s %28s %7s  %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "B won", "verdict")
	for _, wl := range bf.Workloads {
		as, bs := ra[wl.Name], rb[wl.Name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		as, bs = paired(as, bs)
		for _, m := range bf.EndToEnd {
			a, b := values(as, m.Name), values(bs, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if v.verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-16s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %3d/%-3d  %s\n",
				wl.Name, m.Name, v.aMed, v.aQ1, v.aQ3, v.bMed, v.bQ1, v.bQ3, v.won, v.pairs, v.verdict)
		}
	}
	return regressed, nil
}

// paired keeps the runs both sides made with the same seed when they
// share any; otherwise it pairs them in seed order.
func paired(a, b []runOutput) ([]runOutput, []runOutput) {
	bySeed := make(map[int64]runOutput)
	for _, r := range b {
		bySeed[r.seed] = r
	}
	var pa, pb []runOutput
	for _, r := range a {
		if x, ok := bySeed[r.seed]; ok {
			pa, pb = append(pa, r), append(pb, x)
		}
	}
	if len(pa) == 0 {
		return a, b
	}
	return pa, pb
}

func values(rs []runOutput, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
