// Command dsprobe is a chaos probe for a running dsserve: it drives the
// circuit breaker open with deterministic stall-inducing fault runs,
// verifies the service sheds load with 503 + Retry-After while open, then
// waits out the cooldown and confirms recovery through the retrying client.
//
//	dsserve -addr :8077 -breaker-threshold 3 -breaker-cooldown 2s &
//	dsprobe -addr http://127.0.0.1:8077 -stalls 3 -cooldown 2s
//
// With -halt it instead probes the self-healing path: a halted-processor
// run must be diagnosed as a stall without recovery, the same run with
// recovery armed must complete with recovered:true, and the healed stall
// must leave the breaker closed with the recovery counters visible in
// /metrics.
//
// Exit status 0 means the probed cycle was observed; any deviation is one
// line on stderr and exit 1. The smoke script runs both modes against a
// short-cooldown server. Cluster behaviour is covered by the
// internal/cluster tests and scripts/cluster_smoke.sh.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/sim"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "dsserve base URL")
	stalls := flag.Int("stalls", 3, "stall-inducing runs to send (match the server's -breaker-threshold)")
	cooldown := flag.Duration("cooldown", 2*time.Second, "server's -breaker-cooldown, waited out before the recovery check")
	timeout := flag.Duration("timeout", 60*time.Second, "overall probe budget")
	halt := flag.Bool("halt", false, "probe the self-healing path (halt -> reclaim -> recovered success) instead of the breaker cycle")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *halt {
		probeHalt(ctx, *addr)
		return
	}

	// Phase 1: open the breaker with deterministic stalls. Total broadcast
	// drop starves every cross-iteration wait; distinct N defeats the cache.
	for i := 0; i < *stalls; i++ {
		req := service.RunRequest{
			Workload: service.WorkloadSpec{Name: "recurrence", N: int64(20 + i), D: 2},
			Scheme:   service.SchemeSpec{Name: "process", X: 4},
			Config:   service.ConfigSpec{P: 4, Fault: &fault.Plan{Seed: 1, DropProb: 1}},
		}
		code, body := postOnce(ctx, *addr+"/run", req)
		if code != http.StatusBadRequest || !strings.Contains(body, "deadlock") {
			fatalf("stall run %d: status %d body %q, want 400 with a deadlock diagnosis", i, code, body)
		}
	}
	fmt.Printf("dsprobe: %d stall runs diagnosed\n", *stalls)

	// Phase 2: the circuit must now shed even clean traffic.
	clean := service.RunRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 30},
		Scheme:   service.SchemeSpec{Name: "ref"},
		Config:   service.ConfigSpec{P: 4},
	}
	code, _, retryAfter := postOnceHdr(ctx, *addr+"/run", clean)
	if code != http.StatusServiceUnavailable {
		fatalf("open breaker: status %d, want 503", code)
	}
	if retryAfter == "" {
		fatalf("open breaker: 503 missing Retry-After header")
	}
	if !strings.Contains(getText(ctx, *addr+"/metrics"), "dsserve_breaker_state 2") {
		fatalf("metrics do not show the open breaker")
	}
	fmt.Printf("dsprobe: breaker open, shedding with Retry-After %ss\n", retryAfter)

	// Phase 3: wait out the cooldown; the retrying client must get through
	// (its first attempts may land on the tail of the open window — that is
	// exactly what the backoff-and-Retry-After path is for).
	time.Sleep(*cooldown)
	cl := service.Client{Base: *addr, MaxAttempts: 6,
		BaseDelay: 200 * time.Millisecond, MaxDelay: 2 * time.Second,
		OnRetry: func(attempt int, delay time.Duration, cause string) {
			fmt.Printf("dsprobe: retry %d in %v: %s\n", attempt, delay, cause)
		}}
	rr, err := cl.Run(ctx, clean)
	if err != nil {
		fatalf("recovery run failed: %v", err)
	}
	if rr.Cycles <= 0 {
		fatalf("recovery run implausible: %+v", rr)
	}

	// Phase 4: the metrics must record the full episode.
	m := getText(ctx, *addr+"/metrics")
	for _, want := range []string{
		"dsserve_breaker_state 0",
		"dsserve_breaker_opens_total 1",
		fmt.Sprintf("dsserve_watchdog_trips_total %d", *stalls),
	} {
		if !strings.Contains(m, want) {
			fatalf("metrics after recovery missing %q:\n%s", want, m)
		}
	}
	fmt.Println("dsprobe: breaker recovered; open/shed/recover cycle verified")
}

// probeHalt drives the self-healing cycle: the same halted-processor run is
// first diagnosed as an unhealable stall (recovery off), then healed by
// ownership reclamation (recovery armed), and the healed stall must count
// as a success — breaker closed, recovered-run counters exposed.
func probeHalt(ctx context.Context, addr string) {
	req := service.RunRequest{
		Workload: service.WorkloadSpec{Name: "recurrence", N: 26, D: 2},
		Scheme:   service.SchemeSpec{Name: "process", X: 4},
		Config: service.ConfigSpec{P: 4, MaxCycles: 200_000,
			Fault: &fault.Plan{HaltProc: 1, HaltAtCycle: 50}},
	}
	code, body := postOnce(ctx, addr+"/run", req)
	if code != http.StatusBadRequest || !strings.Contains(body, "halted") {
		fatalf("unrecovered halt: status %d body %q, want 400 naming the halted processor", code, body)
	}
	fmt.Println("dsprobe: unrecovered halt diagnosed")

	req.Config.Recover = &sim.Recover{AfterCycles: 40}
	code, body = postOnce(ctx, addr+"/run", req)
	if code != http.StatusOK {
		fatalf("recovery-armed run: status %d body %q, want 200", code, body)
	}
	var rr service.RunResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		fatalf("decode recovered run: %v", err)
	}
	if !rr.Recovered || rr.Recovery == nil {
		fatalf("recovery-armed run did not report recovery: %s", body)
	}
	fmt.Printf("dsprobe: run recovered (%s)\n", rr.Recovery)

	// The healed stall is a served request: breaker closed, counters up.
	// Checks are tolerant of prior probe phases (>=, not exact).
	m := getText(ctx, addr+"/metrics")
	if !strings.Contains(m, "dsserve_breaker_state 0") {
		fatalf("breaker not closed after a healed stall:\n%s", m)
	}
	if n := metricValue(m, "dsserve_recovered_runs_total"); n < 1 {
		fatalf("dsserve_recovered_runs_total = %d, want >= 1:\n%s", n, m)
	}
	if n := metricValue(m, "dsserve_recovery_cost_cycles_total"); n < 1 {
		fatalf("dsserve_recovery_cost_cycles_total = %d, want >= 1:\n%s", n, m)
	}
	fmt.Println("dsprobe: breaker closed, recovery counters visible; halt/reclaim/recover cycle verified")
}

// metricValue extracts one un-labeled counter's value from exposition text
// (-1 when absent).
func metricValue(m, name string) int64 {
	for _, line := range strings.Split(m, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(val, "%d", &n); err == nil {
			return n
		}
	}
	return -1
}

// postOnce posts JSON with no retries and returns status + body text.
func postOnce(ctx context.Context, url string, v any) (int, string) {
	code, body, _ := postOnceHdr(ctx, url, v)
	return code, body
}

func postOnceHdr(ctx context.Context, url string, v any) (int, string, string) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("marshal: %v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Retry-After")
}

func getText(ctx context.Context, url string) string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("read body: %v", err)
	}
	return string(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsprobe: "+format+"\n", args...)
	os.Exit(1)
}
