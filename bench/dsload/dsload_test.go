package main

import (
	"bytes"
	"io"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// shortRun runs one workload for a second at a fifth of its rate.
func shortRun(t *testing.T, w workload, traced bool, doctor func(*op, []byte) []byte) *result {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(config{
		w: w, seed: 7, seconds: 1, traced: traced, root: root,
		scale: 0.2, setups: 1, log: io.Discard, doctor: doctor,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func benchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileListsTheProgramsMetricsAndWorkloads(t *testing.T) {
	bf := benchmarkJSON(t)
	var e2e, layers []metric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	if !sameMetrics(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, dsload prints %v", e2e, endToEnd)
	}
	if !sameMetrics(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, dsload prints %v", layers, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, dsload runs %s at position %d", names, w.name, i)
		}
	}
}

func sameMetrics(a, b []metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// printed asserts a run printed exactly the given metrics, with units.
func printed(t *testing.T, name string, res *result, want []metric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, want %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", name, m.name, v, ok, m.unit)
		}
	}
}

func TestEveryWorkloadRunsCleanAndPrintsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		res := shortRun(t, w, false, nil)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		printed(t, w.name, res, endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v.Value)
			}
		}
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	w, _ := workloadByName("mixed-3node")
	res := shortRun(t, w, true, nil)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced mixed-3node: correct=%v failed=%d", res.Correct, res.Failed)
	}
	printed(t, "traced mixed-3node", res, perLayer)
	for _, name := range []string{"cache.hit_ratio", "cluster.forward_share", "service.run_handler_us", "lang.parse_us", "frontend.lower_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("traced mixed-3node: %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestSeedDeterminesTheRequestStream(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	corp, err := loadCorpus(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		ph := phasesFor(w, 2, false)
		stream := func(seed int64) uint64 {
			p, err := generate(w, seed, ph, 0.2, corp)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return p.fingerprint()
		}
		a, b, c := stream(3), stream(3), stream(4)
		if a != b {
			t.Errorf("%s: seed 3 gave two different request streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same request stream", w.name)
		}
	}
}

var cyclesField = regexp.MustCompile(`"cycles": (\d+)`)

func TestDoctoredAnswerIsAFailure(t *testing.T) {
	w, _ := workloadByName("run-cold")
	wrongCycles := func(o *op, body []byte) []byte {
		return cyclesField.ReplaceAllFunc(body, func(m []byte) []byte {
			n, _ := strconv.Atoi(string(cyclesField.FindSubmatch(m)[1]))
			return []byte(`"cycles": ` + strconv.Itoa(n+1))
		})
	}
	res := shortRun(t, w, false, wrongCycles)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("answers with wrong cycles: correct=%v failed=%d, want failures", res.Correct, res.Failed)
	}
	if got := res.Metrics["success_rate"].Value; got >= 1 {
		t.Errorf("success_rate %v with failures", got)
	}

	// The cheap checks catch a wrong key or a changed repeat without the
	// oracle.
	chk := newChecker(1)
	o := &op{id: 1, kind: kindHit, key: "k", ref: 0, points: 1}
	first := []byte(`{"key": "k", "cached": false, "cycles": 5}`)
	if _, ok := chk.check(o, 200, first, nil); !ok {
		t.Fatal("first fill rejected")
	}
	if _, ok := chk.check(o, 200, bytes.Replace(first, []byte(`false`), []byte(`true`), 1), nil); !ok {
		t.Error("a hit identical up to the cached flag was rejected")
	}
	if _, ok := chk.check(o, 200, bytes.Replace(first, []byte(`5`), []byte(`6`), 1), nil); ok {
		t.Error("a hit differing from its first fill was accepted")
	}
	if _, ok := chk.check(o, 200, []byte(`{"key": "other"}`), nil); ok {
		t.Error("an answer with the wrong key was accepted")
	}
	if _, ok := chk.check(o, 429, []byte(`{"error": "full"}`), nil); ok {
		t.Error("a refused request was accepted")
	}
}
