package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/sim"
)

// TestRunWithFaultSpec: /run accepts a fault plan; the faulty run succeeds
// under delays, reports its injected-fault counts, and hashes to a cache
// address distinct from the clean run's.
func TestRunWithFaultSpec(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	clean := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 24},
		Scheme: SchemeSpec{Name: "process", X: 4}, Config: ConfigSpec{P: 4}}
	faulty := clean
	faulty.Config.Fault = &fault.Plan{Seed: 7, DelayProb: 0.3, DelayCycles: 4}

	resp, body := post(t, ts, "/run", clean)
	if resp.StatusCode != 200 {
		t.Fatalf("clean run: %d %s", resp.StatusCode, body)
	}
	var cr RunResponse
	json.Unmarshal(body, &cr)

	resp, body = post(t, ts, "/run", faulty)
	if resp.StatusCode != 200 {
		t.Fatalf("faulty run: %d %s", resp.StatusCode, body)
	}
	var fr RunResponse
	json.Unmarshal(body, &fr)
	if fr.Key == cr.Key {
		t.Error("faulty run shares the clean run's cache address")
	}
	if fr.Stats.Faults.Delays == 0 {
		t.Errorf("faulty run reports no injected delays: %+v", fr.Stats.Faults)
	}
	if cr.Stats.Faults.Total() != 0 {
		t.Errorf("clean run reports injected faults: %+v", cr.Stats.Faults)
	}

	// Identical faulty request: cache hit on the faulty address.
	resp, body = post(t, ts, "/run", faulty)
	var fr2 RunResponse
	json.Unmarshal(body, &fr2)
	if !fr2.Cached || fr2.Key != fr.Key {
		t.Errorf("faulty rerun not cached: %+v", fr2)
	}

	mbody := getMetrics(t, ts.URL)
	if !strings.Contains(mbody, "dsserve_injected_faults_total") ||
		strings.Contains(mbody, "dsserve_injected_faults_total 0\n") {
		t.Errorf("metrics missing injected-fault count:\n%s", mbody)
	}
}

// TestStallsLeaveOtherRequestsServed: a stall-class failure (total drops
// deadlock every run) is an ordinary 400 that carries the diagnosis and is
// counted as a watchdog trip. Five of them leave a cached key answering
// with the same bytes as before them and a fresh key computed.
func TestStallsLeaveOtherRequestsServed(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	cleanReq := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 30},
		Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: 4}}
	if resp, body := post(t, ts, "/run", cleanReq); resp.StatusCode != 200 {
		t.Fatalf("clean fill: status %d (%s)", resp.StatusCode, body)
	}
	resp, before := post(t, ts, "/run", cleanReq)
	if resp.StatusCode != 200 || !strings.Contains(string(before), `"cached": true`) {
		t.Fatalf("clean repeat is not a hit: status %d (%s)", resp.StatusCode, before)
	}

	// Distinct N so the cache cannot absorb the stalls.
	for n := int64(20); n < 25; n++ {
		stallReq := RunRequest{Workload: WorkloadSpec{Name: "recurrence", N: n, D: 2},
			Scheme: SchemeSpec{Name: "process", X: 4},
			Config: ConfigSpec{P: 4, Fault: &fault.Plan{Seed: 1, DropProb: 1}}}
		resp, body := post(t, ts, "/run", stallReq)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stalling run N=%d: status %d, want 400 (%s)", n, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "deadlock") {
			t.Errorf("stall response lost the diagnosis: %s", body)
		}
	}

	resp, after := post(t, ts, "/run", cleanReq)
	if resp.StatusCode != 200 {
		t.Fatalf("cached key after the stalls: status %d, want 200 (%s)", resp.StatusCode, after)
	}
	if string(after) != string(before) {
		t.Errorf("hit body changed across the stalls:\nbefore %s\nafter  %s", before, after)
	}
	resp, body := post(t, ts, "/run", RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 31},
		Scheme: SchemeSpec{Name: "ref"}, Config: ConfigSpec{P: 4}})
	if resp.StatusCode != 200 {
		t.Fatalf("fresh key after the stalls: status %d, want 200 (%s)", resp.StatusCode, body)
	}

	// The stalls are counted as watchdog trips and nowhere else: the
	// metric families are exactly the service's own, with no state the
	// stalls could have switched.
	mbody := getMetrics(t, ts.URL)
	if !strings.Contains(mbody, "dsserve_watchdog_trips_total 5\n") {
		t.Errorf("metrics missing five watchdog trips:\n%s", mbody)
	}
	var families []string
	for _, line := range strings.Split(mbody, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	want := []string{
		"dsserve_queue_depth", "dsserve_queue_capacity", "dsserve_jobs_inflight",
		"dsserve_workers", "dsserve_jobs_completed_total",
		"dsserve_cache_entries", "dsserve_cache_hits_total", "dsserve_cache_misses_total",
		"dsserve_cache_dedups_total", "dsserve_cache_evictions_total",
		"dsserve_shape_hits_total", "dsserve_shape_misses_total", "dsserve_shape_entries",
		"dsserve_watchdog_trips_total", "dsserve_injected_faults_total",
		"dsserve_recovered_runs_total", "dsserve_recovery_cost_cycles_total",
		"dsserve_requests_total", "dsserve_request_duration_seconds",
		"dsserve_sweep_points_total", "dsserve_job_latency_seconds",
	}
	if strings.Join(families, " ") != strings.Join(want, " ") {
		t.Errorf("metric families:\n got %v\nwant %v", families, want)
	}
}

// TestRunRecoversFromHalt: a halt that deadlocks the run without recovery
// completes with recovered:true when a Recover spec is armed, and the
// recovery counters reach /metrics.
func TestRunRecoversFromHalt(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	req := RunRequest{Workload: WorkloadSpec{Name: "recurrence", N: 24, D: 2},
		Scheme: SchemeSpec{Name: "process", X: 4},
		Config: ConfigSpec{P: 4, Fault: &fault.Plan{HaltProc: 1, HaltAtCycle: 50}}}

	// Without recovery the halt is a diagnosed stall: 400, naming the halt.
	resp, body := post(t, ts, "/run", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unrecovered halt: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "halted") {
		t.Errorf("halt diagnosis missing from %s", body)
	}

	// With recovery armed the same run completes and reports the repair.
	req.Config.Recover = &sim.Recover{AfterCycles: 30}
	resp, body = post(t, ts, "/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("recovery-armed run: status %d, want 200 (%s)", resp.StatusCode, body)
	}
	var rr RunResponse
	json.Unmarshal(body, &rr)
	if !rr.Recovered || rr.Recovery == nil {
		t.Fatalf("run did not report recovery: %+v", rr)
	}
	if rr.Recovery.Proc != 1 || rr.Recovery.CostCycles != 30 {
		t.Errorf("report = %+v, want proc 1 reclaimed at cost 30", rr.Recovery)
	}

	mbody := getMetrics(t, ts.URL)
	if !strings.Contains(mbody, "dsserve_recovered_runs_total 1") {
		t.Errorf("metrics missing recovered-run count:\n%s", mbody)
	}
	if !strings.Contains(mbody, "dsserve_recovery_cost_cycles_total 30") {
		t.Errorf("metrics missing recovery cost:\n%s", mbody)
	}

	// Identical recovered request: a cache hit on the recovery-armed address.
	resp, body = post(t, ts, "/run", req)
	var rr2 RunResponse
	json.Unmarshal(body, &rr2)
	if !rr2.Cached || !rr2.Recovered {
		t.Errorf("recovered rerun not cached with its report: %+v", rr2)
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return string(b)
}
