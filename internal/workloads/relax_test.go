package workloads

import (
	"testing"

	"github.com/csrd-repro/datasync/internal/barrier"
	"github.com/csrd-repro/datasync/internal/sim"
)

func relaxCfg(p int) sim.Config {
	return sim.Config{Processors: p, BusLatency: 1, MemLatency: 2, Modules: p, SyncOpCost: 1, SchedOverhead: 1}
}

func checkRelax(t *testing.T, r Relax, m *sim.Machine, stats sim.Stats) {
	t.Helper()
	want, _ := r.SerialMem()
	if diff := want.Diff(m.Mem()); diff != "" {
		t.Fatalf("relaxation diverged from serial:\n%s", diff)
	}
	_ = stats
}

func TestRelaxPipelinedPCMatchesSerial(t *testing.T) {
	for _, g := range []int64{1, 3, 7} {
		for _, x := range []int{1, 2, 8} {
			r := Relax{N: 16, Cost: 4, G: g}
			m := sim.New(relaxCfg(4))
			prog := r.PipelinedPC(m, x)
			stats, err := m.RunLoop(r.N-1, prog)
			if err != nil {
				t.Fatalf("G=%d X=%d: %v", g, x, err)
			}
			checkRelax(t, r, m, stats)
		}
	}
}

func TestRelaxPipelinedSCMatchesSerial(t *testing.T) {
	r := Relax{N: 12, Cost: 4, G: 1}
	for _, k := range []int{1, 3, int(r.SyncPoints())} {
		m := sim.New(relaxCfg(4))
		prog := r.PipelinedSC(m, k)
		stats, err := m.RunLoop(r.N-1, prog)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		checkRelax(t, r, m, stats)
	}
}

func TestRelaxWavefrontMatchesSerial(t *testing.T) {
	r := Relax{N: 16, Cost: 4, G: 1}
	m := sim.New(relaxCfg(4))
	b := barrier.NewSimCounter(m, 0)
	progs := r.Wavefront(m, func(pid int, round int64) []sim.Op { return b.Ops(round) })
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatal(err)
	}
	checkRelax(t, r, m, stats)
}

// TestPipelineBeatsWavefront is Example 1's claim: same parallel steps, but
// the asynchronous pipeline wastes fewer cycles than barriered wavefronts.
func TestPipelineBeatsWavefront(t *testing.T) {
	r := Relax{N: 24, Cost: 10, G: 1}
	p := 4

	mPipe := sim.New(relaxCfg(p))
	pipeStats, err := mPipe.RunLoop(r.N-1, r.PipelinedPC(mPipe, 2*p))
	if err != nil {
		t.Fatal(err)
	}
	checkRelax(t, r, mPipe, pipeStats)

	mWave := sim.New(relaxCfg(p))
	b := barrier.NewSimCounter(mWave, 0)
	waveStats, err := mWave.RunProcesses(r.Wavefront(mWave, func(pid int, round int64) []sim.Op { return b.Ops(round) }))
	if err != nil {
		t.Fatal(err)
	}
	checkRelax(t, r, mWave, waveStats)

	if pipeStats.Cycles >= waveStats.Cycles {
		t.Errorf("pipeline (%d cycles) not faster than wavefront+barrier (%d cycles)",
			pipeStats.Cycles, waveStats.Cycles)
	}
	if pipeStats.Utilization() <= waveStats.Utilization() {
		t.Errorf("pipeline utilization %.3f not better than wavefront %.3f",
			pipeStats.Utilization(), waveStats.Utilization())
	}
}

// TestGroupingReducesSyncOps: raising G divides the number of
// synchronization operations at a modest pipeline-delay cost.
func TestGroupingReducesSyncOps(t *testing.T) {
	var prevSync int64 = 1 << 60
	for _, g := range []int64{1, 3, 9} {
		r := Relax{N: 19, Cost: 4, G: g}
		m := sim.New(relaxCfg(4))
		stats, err := m.RunLoop(r.N-1, r.PipelinedPC(m, 8))
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		checkRelax(t, r, m, stats)
		if stats.SyncOps >= prevSync {
			t.Errorf("G=%d sync ops %d not fewer than previous %d", g, stats.SyncOps, prevSync)
		}
		prevSync = stats.SyncOps
	}
}

// TestSCStarvationWithFewCounters: with K << SyncPoints the SC pipeline
// degenerates toward serial; the PC pipeline with a handful of PCs does not.
func TestSCStarvationWithFewCounters(t *testing.T) {
	r := Relax{N: 20, Cost: 6, G: 1}
	p := 4

	mPC := sim.New(relaxCfg(p))
	pcStats, err := mPC.RunLoop(r.N-1, r.PipelinedPC(mPC, 2*p))
	if err != nil {
		t.Fatal(err)
	}
	mSC := sim.New(relaxCfg(p))
	scStats, err := mSC.RunLoop(r.N-1, r.PipelinedSC(mSC, 2))
	if err != nil {
		t.Fatal(err)
	}
	checkRelax(t, r, mSC, scStats)
	// The PC pipeline used 2P counters; the SC run had 2 of the N-1=19
	// sync points' counters and must be clearly slower.
	if scStats.Cycles < pcStats.Cycles*3/2 {
		t.Errorf("SC starvation not visible: SC %d cycles vs PC %d", scStats.Cycles, pcStats.Cycles)
	}
	// With enough SCs the schemes converge to similar pipelining.
	mSCFull := sim.New(relaxCfg(p))
	fullStats, err := mSCFull.RunLoop(r.N-1, r.PipelinedSC(mSCFull, int(r.SyncPoints())))
	if err != nil {
		t.Fatal(err)
	}
	checkRelax(t, r, mSCFull, fullStats)
	if fullStats.Cycles > pcStats.Cycles*13/10 {
		t.Errorf("dedicated SCs should pipeline comparably: SC-full %d vs PC %d", fullStats.Cycles, pcStats.Cycles)
	}
}

func TestRelaxAccounting(t *testing.T) {
	r := Relax{N: 10, Cost: 2, G: 4}
	if r.SyncPoints() != 3 { // groups [2,5] [6,9] [10,10]
		t.Errorf("SyncPoints = %d, want 3", r.SyncPoints())
	}
	_, cycles := r.SerialMem()
	if cycles != 9*9*2 {
		t.Errorf("serial cycles = %d, want 162", cycles)
	}
}
