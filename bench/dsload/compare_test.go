package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"faster", steady, scale(steady, 0.8), true, "improved"},
		{"slower", steady, scale(steady, 1.3), true, "regressed"},
		{"same", steady, steady, true, "unchanged"},
		{"within bound", steady, scale(steady, 1.05), true, "unchanged"},
		{"throughput up", steady, scale(steady, 1.2), false, "improved"},
		{"throughput down", steady, scale(steady, 0.7), false, "regressed"},
		{"parent spread wider than bound", noisy, noisy, true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareDirectories(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	write := func(dir string, seed int, lat, rps float64) {
		line := fmt.Sprintf(`{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_mean_ms":{"value":%g,"unit":"ms"},"capacity_rps":{"value":%g,"unit":"1/s"}}}`, lat, rps)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-hot.%d.json", seed)), []byte("table\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s := 1; s <= 10; s++ {
		write(dirA, s, 1+float64(s%3)/100, 1000)
		write(dirB, s, 0.5+float64(s%3)/100, 700)
	}
	bf := &benchmarkFile{EndToEnd: []boundedMetric{
		{Name: "latency_mean_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "capacity_rps", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"run-hot"})
	var out bytes.Buffer
	regressed, err := compare(bf, dirA, dirB, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 30% capacity loss was not reported as a regression")
	}
	for _, want := range []string{"latency_mean_ms", "improved", "capacity_rps", "regressed", "10/10", "0/10"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}
