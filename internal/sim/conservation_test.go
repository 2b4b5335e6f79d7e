package sim

import (
	"math/rand"
	"testing"
)

// randomTerminatingRun builds and runs a random producer-chain program
// whose waits are all eventually satisfied: processors increment a shared
// chain variable in turn, with random compute, sync and memory ops mixed
// in. It returns the run statistics.
func randomTerminatingRun(t *testing.T, rng *rand.Rand) Stats {
	t.Helper()
	p := 1 + rng.Intn(5)
	cfg := Config{
		Processors:  p,
		BusLatency:  int64(rng.Intn(4)),
		BusCoverage: rng.Intn(2) == 0,
		MemLatency:  int64(1 + rng.Intn(3)),
		Modules:     1 + rng.Intn(3),
		SyncOpCost:  int64(rng.Intn(2)),
	}
	m := New(cfg)
	chain := m.NewRegVar("chain", 0)
	memVar := m.NewMemVar("mem", 0, 0)
	progs := make([][]Op, p)
	// Processor k waits for chain >= k, does random work, sets chain k+1.
	for k := 0; k < p; k++ {
		var ops []Op
		if k > 0 {
			ops = append(ops, WaitGE(chain, int64(k), m.Text("chain-wait")))
		}
		for extra := rng.Intn(4); extra > 0; extra-- {
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, Compute(int64(rng.Intn(9)), 0, 0, m.Text("work")))
			case 1:
				ops = append(ops, WriteVar(memVar, int64(k+1), m.Text("mem-write")))
			case 2:
				ops = append(ops, RMW(memVar, 1, m.Text("mem-rmw")))
			}
		}
		ops = append(ops, WriteVar(chain, int64(k+1), m.Text("chain-advance")))
		progs[k] = ops
	}
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatalf("random run failed: %v", err)
	}
	return stats
}

// TestCycleConservationProperty: every processor's time is fully accounted
// as busy, waiting or idle across random machines and programs.
func TestCycleConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 300; trial++ {
		stats := randomTerminatingRun(t, rng)
		if err := stats.CheckConservation(); err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, stats)
		}
	}
}

// TestCycleConservationSelfScheduled: the identity also holds under
// self-scheduling with dispatch overhead and polling waits.
func TestCycleConservationSelfScheduled(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		p := 1 + rng.Intn(4)
		cfg := Config{
			Processors:    p,
			BusLatency:    int64(rng.Intn(3)),
			MemLatency:    int64(1 + rng.Intn(3)),
			SyncOpCost:    int64(rng.Intn(2)),
			SchedOverhead: int64(rng.Intn(3)),
		}
		if rng.Intn(2) == 0 {
			cfg.Dispatch = DispatchChunked
			cfg.ChunkSize = int64(1 + rng.Intn(5))
		}
		m := New(cfg)
		v := m.NewRegVar("pc", 0)
		mv := m.NewMemVar("flag", 0, 0)
		n := int64(5 + rng.Intn(20))
		costs := make([]int64, n+1)
		for i := range costs {
			costs[i] = int64(1 + rng.Intn(7))
		}
		pred, body, adv := m.Text("pred"), m.Text("body"), m.Text("adv")
		flagSet, flagPoll := m.Text("flag-set"), m.Text("flag-poll")
		stats, err := m.RunLoop(n, func(dst []Op, iter int64) []Op {
			ops := append(dst,
				WaitGE(v, iter-1, pred),
				Compute(costs[iter], 0, 0, body),
				WriteVar(v, iter, adv),
			)
			if iter == n/2 {
				ops = append(ops, WriteVar(mv, 1, flagSet))
			}
			if iter == n { // polling wait on the memory flag
				ops = append(ops, WaitGE(mv, 1, flagPoll))
			}
			return ops
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := stats.CheckConservation(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
