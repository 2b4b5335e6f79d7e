package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
)

// foldedPCProg is a loop synchronized only by x folded process counters:
// iteration i takes ownership of PC[(i-1) mod x] (an ownership check),
// computes, and passes the counter to iteration i+x. PC[k] starts owned by
// iteration k+1, as the paper initializes it.
func foldedPCProg(m *Machine, pc VarID, x int64) Program {
	ownTag, work, release := m.Text("own"), m.Text("work"), m.Text("release")
	return func(ops []Op, iter int64) []Op {
		slot := pc + VarID((iter-1)%x)
		own := WaitGE(slot, iter, ownTag)
		own.OwnCheck = true
		return append(ops, own, Compute(3, 0, 0, work), WriteVar(slot, iter+x, release))
	}
}

func runFolded(t *testing.T, cfg Config, x int64) Stats {
	t.Helper()
	m := New(cfg)
	pc := m.NewRegVars(int(x), IndexedNames("PC[%d]"), func(k int) int64 { return int64(k) + 1 })
	st, err := m.RunLoop(16, foldedPCProg(m, pc, x))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWitnessBusFree: a program that never writes a register proves the
// bus irrelevant; a single register write refutes it.
func TestWitnessBusFree(t *testing.T) {
	run := func(write bool) Stats {
		m := New(Config{Processors: 2, BusLatency: 3, SyncOpCost: 1, Modules: 1})
		key := m.NewMemVar("key", 0, 0)
		reg := m.NewRegVar("reg", 0)
		work, memSignal, regSignal := m.Text("work"), m.Text("mem-signal"), m.Text("reg-signal")
		st, err := m.RunLoop(8, func(ops []Op, iter int64) []Op {
			ops = append(ops, Compute(2, 0, 0, work), WriteVar(key, iter, memSignal))
			if write && iter == 5 {
				ops = append(ops, WriteVar(reg, 1, regSignal))
			}
			return ops
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := run(false); !st.BusFree {
		t.Errorf("register-free run not bus-free: %+v", st)
	}
	if st := run(true); st.BusFree || st.BusBroadcasts != 1 {
		t.Errorf("run with one register write: BusFree=%v broadcasts=%d, want false and 1", st.BusFree, st.BusBroadcasts)
	}
}

// TestWitnessOwnershipPrompt: a folded-PC run is ownership-prompt only when
// every ownership check finds its threshold bus-committed.
func TestWitnessOwnershipPrompt(t *testing.T) {
	base := Config{Processors: 2, BusLatency: 1, SyncOpCost: 1, SchedOverhead: 1}

	// X=1 on two processors: iteration 2 checks PC[0] while iteration 1
	// still owns it, and blocks.
	if st := runFolded(t, base, 1); st.OwnershipPrompt || st.WaitSyncTotal() == 0 {
		t.Errorf("X=1 P=2: OwnershipPrompt=%v waitSync=%d, want a blocked, unprompt run", st.OwnershipPrompt, st.WaitSyncTotal())
	}

	// X=4 on two processors: by the time iteration i checks PC[(i-1) mod
	// 4], iteration i-4 released it long ago.
	if st := runFolded(t, base, 4); !st.OwnershipPrompt || st.WaitSyncTotal() != 0 {
		t.Errorf("X=4 P=2: OwnershipPrompt=%v waitSync=%d, want a prompt run that never waits", st.OwnershipPrompt, st.WaitSyncTotal())
	}

	// X=1 on one processor with a slow bus: every check passes at once,
	// but only through the processor's own in-flight release, which the
	// bus has not committed. That does not count as prompt.
	slow := base
	slow.Processors, slow.BusLatency = 1, 8
	if st := runFolded(t, slow, 1); st.OwnershipPrompt || st.WaitSyncTotal() != 0 {
		t.Errorf("X=1 P=1 slow bus: OwnershipPrompt=%v waitSync=%d, want an unprompt run that never waits", st.OwnershipPrompt, st.WaitSyncTotal())
	}

	// The guard of a conditional write is an ownership check too.
	m := New(Config{Processors: 2, BusLatency: 2, SyncOpCost: 1})
	pc := m.NewRegVar("PC[0]", 1)
	markTag, work := m.Text("mark"), m.Text("work")
	st, err := m.RunLoop(4, func(ops []Op, iter int64) []Op {
		return AppendWriteVarIfGE(AppendCompute(ops, 1, 0, 0, work), pc, iter, iter, true, markTag)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.OwnershipPrompt {
		t.Errorf("a guard that found its threshold uncommitted left the run ownership-prompt: %+v", st)
	}
}

// TestWitnessesClearedByFaultsAndRecovery: a run with a simulator fault
// armed proves nothing, even when no fault fires and even when recovery is
// what completes it.
func TestWitnessesClearedByFaultsAndRecovery(t *testing.T) {
	clean := Config{Processors: 2, BusLatency: 1, SyncOpCost: 1, SchedOverhead: 1}
	memOnly := func(cfg Config) Stats {
		m := New(cfg)
		key := m.NewMemVar("key", 0, 0)
		work, signal := m.Text("work"), m.Text("signal")
		st, err := m.RunLoop(8, func(ops []Op, iter int64) []Op {
			return append(ops, Compute(2, 0, 0, work), WriteVar(key, iter, signal))
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := memOnly(clean); !st.BusFree || !st.OwnershipPrompt {
		t.Fatalf("clean register-free run: BusFree=%v OwnershipPrompt=%v, want both", st.BusFree, st.OwnershipPrompt)
	}
	if st := runFolded(t, clean, 4); !st.OwnershipPrompt {
		t.Fatal("clean X=4 run not ownership-prompt")
	}

	armed := clean
	armed.FaultPlan = fault.Plan{Seed: 3, ModuleDelayProb: 1e-9} // armed, all but never fires
	if st := memOnly(armed); st.BusFree || st.OwnershipPrompt || st.Faults.Total() != 0 {
		t.Errorf("armed fault plan: BusFree=%v OwnershipPrompt=%v faults=%d, want no witness and no fault",
			st.BusFree, st.OwnershipPrompt, st.Faults.Total())
	}
	if st := runFolded(t, armed, 4); st.BusFree || st.OwnershipPrompt {
		t.Errorf("armed fault plan on the folded run: BusFree=%v OwnershipPrompt=%v, want neither", st.BusFree, st.OwnershipPrompt)
	}

	// Recovery acts only on a processor its fault plan halts.
	recovered := clean
	recovered.Processors = 4
	recovered.Dispatch, recovered.ChunkSize = DispatchChunked, 4
	recovered.FaultPlan = fault.Plan{Seed: 11, HaltProc: 2, HaltAtCycle: 9}
	recovered.Recover = Recover{AfterCycles: 30}
	if st := runFolded(t, recovered, 8); st.Recovery == nil || st.BusFree || st.OwnershipPrompt {
		t.Errorf("recovered run: recovery=%v BusFree=%v OwnershipPrompt=%v, want a recovery and no witness",
			st.Recovery, st.BusFree, st.OwnershipPrompt)
	}
}

// TestWitnessesNotSerialized: the witnesses add nothing to a run's JSON,
// so the /run bytes and every digest over them are unchanged.
func TestWitnessesNotSerialized(t *testing.T) {
	st := runFolded(t, Config{Processors: 2, BusLatency: 1, SyncOpCost: 1, SchedOverhead: 1}, 4)
	proven, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	st.BusFree, st.OwnershipPrompt = false, false
	unproven, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(proven, unproven) {
		t.Errorf("witnesses change the JSON:\n%s\nvs\n%s", proven, unproven)
	}
}
