package codegen_test

import (
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// TestRunRejectsInvalidConfig: Run must return the Config.Check error for a
// bad machine description instead of panicking in the simulator.
func TestRunRejectsInvalidConfig(t *testing.T) {
	w := workloads.Fig21(10, 1)
	for _, cfg := range []sim.Config{
		{Processors: 0},
		{Processors: 4, BusLatency: -1},
		{Processors: 4, MemLatency: -1},
		{Processors: 4, Modules: -2},
	} {
		_, err := codegen.Run(w, codegen.RefBased{}, cfg)
		if err == nil {
			t.Fatalf("Run accepted invalid config %+v", cfg)
		}
		if !strings.Contains(err.Error(), "invalid machine configuration") {
			t.Errorf("unexpected error for %+v: %v", cfg, err)
		}
	}
}

// TestInstrumentRejectsInvalidCounters: a scheme without process counters
// or with a negative statement-counter budget is an error from every
// executor, not a panic while declaring the counters.
func TestInstrumentRejectsInvalidCounters(t *testing.T) {
	for _, c := range []struct {
		sch  codegen.Scheme
		w    *codegen.Workload
		want string
	}{
		{codegen.ProcessOriented{X: 0, Improved: true}, workloads.Fig21(10, 1), "X=0"},
		{codegen.ProcessOriented{X: -1}, workloads.Fig21(10, 1), "X=-1"},
		{codegen.PipelinedOuter{X: 0, G: 1}, workloads.Stencil(6, 1), "X=0"},
		{codegen.StatementOriented{K: -1}, workloads.Fig21(10, 1), "K=-1"},
	} {
		if _, err := codegen.Run(c.w, c.sch, cfg(2)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run %s: err = %v, want one naming %s", c.sch.Name(), err, c.want)
		}
		if _, err := codegen.RunGoroutines(c.w, c.sch, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunGoroutines %s: err = %v, want one naming %s", c.sch.Name(), err, c.want)
		}
	}
}
