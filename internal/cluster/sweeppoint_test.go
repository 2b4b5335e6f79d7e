package cluster

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/service"
)

// TestFailedSweepPointMatchesEvalSweep: a point the cluster coordinator
// gives up on must read like the same point failing on a single node. With
// P set by neither the grid nor the config, EvalSweep reports the machine
// size the run resolves (the default 8), so the coordinator's failed point
// must too, not the raw 0 of its grid selection.
func TestFailedSweepPointMatchesEvalSweep(t *testing.T) {
	req := service.SweepRequest{
		Workload: service.WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   service.SchemeSpec{Name: "process"},
		// Every run overruns the cycle cap, so the point fails on the node.
		Config: service.ConfigSpec{MaxCycles: 5},
		Grid:   service.SweepGrid{X: []int{4}},
	}
	srv := service.NewServer(service.Options{Workers: 1, QueueCap: 4, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Drain(context.Background())
	single, err := srv.EvalSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := single.Points[0]
	if want.Error == "" || want.P != 8 {
		t.Fatalf("single-node point = %+v, want a failed point on the default 8 processors", want)
	}

	sels, _, err := service.SweepPointKeys(req)
	if err != nil {
		t.Fatal(err)
	}
	run := &sweepRun{req: req, sels: sels, pending: 1,
		points: make([]service.SweepPoint, len(sels)), done: make([]bool, len(sels))}
	run.cond = sync.NewCond(&run.mu)
	run.finish(&sweepTask{indices: []int{0}}, nil, errors.New("executor lost"))
	got := run.points[0]
	if got.Error == "" {
		t.Fatalf("coordinator point %+v carries no error", got)
	}
	got.Error, want.Error = "", ""
	if got != want {
		t.Errorf("coordinator renders the failed point as %+v, a single node as %+v", got, want)
	}
}
