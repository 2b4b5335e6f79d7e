package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/service"
)

// chainOwners counts, per member, the evaluation chains of sweep the
// coordinator places there: each chain goes to the owner of its first
// point's key.
func chainOwners(t *testing.T, ring *Ring, sweep service.SweepRequest) map[string]int {
	t.Helper()
	sels, keys, err := service.SweepPointKeys(sweep)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]int{}
	for _, c := range service.SweepChains(sweep, sels) {
		owners[ring.Owner(keys[c[0]]).ID]++
	}
	return owners
}

// sweepOutcome reads one node's dsserve_sweep_points_total for outcome.
func sweepOutcome(t *testing.T, addr, outcome string) int {
	t.Helper()
	prefix := fmt.Sprintf("dsserve_sweep_points_total{outcome=%q} ", outcome)
	for _, line := range strings.Split(getMetrics(t, addr), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("%s: no %s sweep point counter", addr, outcome)
	return 0
}

// TestClusterSweepKeepsChainsWhole: a 3-node sweep whose chains are longer
// than a steal chunk answers exactly what one node answers, and collapses
// exactly as many points, which it could not if a chain were split across
// nodes.
func TestClusterSweepKeepsChainsWhole(t *testing.T) {
	tc := startCluster(t, 3, Options{StealChunk: 3})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	sweeps := []service.SweepRequest{{
		Workload: service.WorkloadSpec{Name: "recurrence", N: 40},
		Scheme:   service.SchemeSpec{Name: "process"},
		Grid:     service.SweepGrid{X: []int{1, 2, 3, 4, 6, 8, 12, 16}, P: []int{2, 4, 8}, BusLatency: []int64{0, 1, 4}},
	}, {
		Workload: service.WorkloadSpec{Name: "fig21", N: 30},
		Scheme:   service.SchemeSpec{Name: "ref"},
		Grid:     service.SweepGrid{X: []int{2, 4}, P: []int{2, 8}, Chunk: []int64{1, 3}, BusLatency: []int64{0, 1, 2, 4}},
	}}
	for _, sweep := range sweeps {
		if owners := chainOwners(t, tc.nodes[0].Ring(), sweep); len(owners) < 2 {
			t.Fatalf("%s sweep's chains all placed on %v; pick a grid whose chains spread", sweep.Scheme.Name, owners)
		}
	}

	oracle := service.NewServer(service.Options{Workers: 2, Logger: quiet})
	defer oracle.Drain(context.Background())
	oracleTS := httptest.NewServer(oracle.Handler())
	defer oracleTS.Close()

	points := 0
	for _, sweep := range sweeps {
		resp, body := postNode(t, tc.addrs[0], "/sweep", sweep, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/sweep: %d %s", resp.StatusCode, body)
		}
		var got service.SweepResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Failed != 0 {
			t.Fatalf("%d points failed: %s", got.Failed, body)
		}
		requireSweepMatchesOracle(t, sweep, got)
		if _, err := oracle.EvalSweep(context.Background(), sweep); err != nil {
			t.Fatal(err)
		}
		points += len(got.Points)
	}

	total, collapsed := 0, 0
	for _, addr := range tc.addrs {
		for _, o := range []string{"simulated", "cached", "collapsed"} {
			total += sweepOutcome(t, addr, o)
		}
		collapsed += sweepOutcome(t, addr, "collapsed")
	}
	if total != points {
		t.Errorf("nodes answered %d sweep points, the sweeps have %d", total, points)
	}
	if want := sweepOutcome(t, oracleTS.URL, "collapsed"); collapsed != want || want == 0 {
		t.Errorf("cluster collapsed %d points, a single node %d", collapsed, want)
	}
}

// TestPackChains: chains pack whole and in order into tasks of at most the
// steal chunk, and a longer chain is a task of its own.
func TestPackChains(t *testing.T) {
	chains := [][]int{{0, 1}, {2}, {3, 4, 5, 6}, {7}, {8, 9}}
	got := packChains(chains, 3)
	want := [][]int{{0, 1, 2}, {3, 4, 5, 6}, {7, 8, 9}}
	if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Errorf("packChains = %v, want %v", got, want)
	}
}

// TestStealWaitsForIdleOwner: a coordinator worker that runs dry must not
// steal the queued tasks of a member whose worker has not yet been
// scheduled. Those tasks are the owner's keys, and evaluated there they
// land in the cache shard later requests for those keys reach. An idle
// owner with a running worker keeps its queue; once it executes, or its
// worker is gone, its queue may be stolen from.
func TestStealWaitsForIdleOwner(t *testing.T) {
	run := &sweepRun{
		queues:  map[string][]*sweepTask{"n1": {{owner: "n1"}, {owner: "n1"}}, "n2": {{owner: "n2"}}},
		busy:    map[string]int{},
		working: map[string]bool{"n0": true, "n1": true, "n2": true},
	}
	run.cond = sync.NewCond(&run.mu)
	if task, _ := run.takeLocked("n0"); task != nil {
		t.Fatalf("n0 stole %s's task before its owner took one", task.owner)
	}
	run.busy["n1"] = 1 // n1 is executing its first task
	if task, stolen := run.takeLocked("n0"); task == nil || !stolen || task.owner != "n1" {
		t.Fatalf("n0 took %+v (stolen %v), want a steal from the busy n1", task, stolen)
	}
	run.busy["n1"] = 0        // n1 is idle again and takes its own queue
	delete(run.working, "n2") // n2's worker exited: its member left the ring
	if task, stolen := run.takeLocked("n0"); task == nil || !stolen || task.owner != "n2" {
		t.Fatalf("n0 took %+v (stolen %v), want a steal from the workerless n2", task, stolen)
	}
}
