package sim

import (
	"strings"
	"testing"
)

func TestTraceRecordsComputeAndWait(t *testing.T) {
	m := New(Config{Processors: 2, BusLatency: 2, SyncOpCost: 0})
	m.EnableTrace()
	v := m.NewRegVar("v", 0)
	_, err := m.RunProcesses([][]Op{
		{Compute(10, 0, 0, m.Text("produce")), WriteVar(v, 1, m.Text("pub"))},
		{WaitGE(v, 1, m.Text("consume-wait")), Compute(3, 0, 0, m.Text("consume"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := m.Trace()
	var kinds []TraceKind
	var sawWait *TraceEvent
	for i := range events {
		kinds = append(kinds, events[i].Kind)
		if events[i].Kind == TraceWait {
			sawWait = &events[i]
		}
	}
	if sawWait == nil {
		t.Fatalf("no wait event recorded: %+v", events)
	}
	if sawWait.Proc != 1 || sawWait.Start != 0 || sawWait.End != 12 {
		t.Errorf("wait event = %+v, want proc 1 span [0,12]", *sawWait)
	}
	if sawWait.Tag != "consume-wait" {
		t.Errorf("wait tag = %q", sawWait.Tag)
	}
	nCompute := 0
	for _, k := range kinds {
		if k == TraceCompute {
			nCompute++
		}
	}
	if nCompute != 2 {
		t.Errorf("compute events = %d, want 2", nCompute)
	}
}

func TestTraceRecordsModuleService(t *testing.T) {
	m := New(Config{Processors: 2, MemLatency: 4})
	m.EnableTrace()
	v := m.NewMemVar("c", 0, 0)
	_, err := m.RunProcesses([][]Op{
		{RMW(v, 1, m.Text("rmw0"))},
		{RMW(v, 1, m.Text("rmw1"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	services := 0
	for _, e := range m.Trace() {
		if e.Kind == TraceService {
			services++
			if e.End-e.Start < 4 {
				t.Errorf("service span too short: %+v", e)
			}
		}
	}
	if services != 2 {
		t.Errorf("service events = %d, want 2", services)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := New(Config{Processors: 1})
	if _, err := m.RunProcesses([][]Op{{Compute(5, 0, 0, Label{})}}); err != nil {
		t.Fatal(err)
	}
	if len(m.Trace()) != 0 {
		t.Error("trace recorded without EnableTrace")
	}
}

func TestTraceTimelineRendering(t *testing.T) {
	events := []TraceEvent{
		{Proc: 0, Start: 0, End: 50, Kind: TraceCompute},
		{Proc: 1, Start: 0, End: 25, Kind: TraceWait},
		{Proc: 1, Start: 25, End: 50, Kind: TraceCompute},
		{Proc: 1, Start: 50, End: 60, Kind: TraceService},
	}
	out := TraceTimeline(events, 2, 60, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "#") {
		t.Errorf("P0 lane missing compute: %q", lines[1])
	}
	p1 := lines[2]
	if !strings.Contains(p1, ".") || !strings.Contains(p1, "~") || !strings.Contains(p1, "#") {
		t.Errorf("P1 lane missing glyphs: %q", p1)
	}
	// Wait precedes compute in the lane.
	if strings.Index(p1, ".") > strings.Index(p1, "#") {
		t.Errorf("P1 lane order wrong: %q", p1)
	}
	if TraceCompute.String() != "compute" || TraceWait.String() != "wait" || TraceService.String() != "service" {
		t.Error("TraceKind strings wrong")
	}
}
