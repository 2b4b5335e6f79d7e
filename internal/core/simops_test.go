package core

import (
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/sim"
)

func TestSimPCsBasicProtocol(t *testing.T) {
	m := sim.New(sim.Config{Processors: 2, SyncOpCost: 0})
	pcs := NewSimPCs(m, 2)
	if len(pcs.Vars()) != 2 {
		t.Fatalf("Vars = %d, want 2", len(pcs.Vars()))
	}
	// Process 1 on proc 0: get, set(1), release. Process 3 on proc 1:
	// waits for process 1's step 1, then gets ownership after release.
	progs := [][]sim.Op{
		{
			pcs.GetPC(1),
			sim.Compute(5, nil, 0, "S1@1"),
			pcs.SetPC(1, 1),
			pcs.ReleasePC(1),
		},
		{
			pcs.WaitPC(3, 2, 1), // wait_PC(2,1): process 1 at step 1
			pcs.GetPC(3),
			sim.Compute(1, nil, 0, "S1@3"),
			pcs.SetPC(3, 1),
			pcs.ReleasePC(3),
		},
	}
	if _, err := m.RunProcesses(progs); err != nil {
		t.Fatal(err)
	}
	// Slot 0 ended owned by process 5 (3+X).
	if got := Unpack(m.VarValue(pcs.Vars()[0])); got != (PC{5, 0}) {
		t.Errorf("final PC[0] = %v, want <5,0>", got)
	}
	// Slot 1 untouched: still owned by process 2.
	if got := Unpack(m.VarValue(pcs.Vars()[1])); got != (PC{2, 0}) {
		t.Errorf("final PC[1] = %v, want <2,0>", got)
	}
}

func TestSimPCsImprovedProtocol(t *testing.T) {
	m := sim.New(sim.Config{Processors: 2, BusLatency: 1, SyncOpCost: 0})
	pcs := NewSimPCs(m, 1)
	// Process 2's early mark (issued before ownership arrives) is skipped
	// without waiting; its transfer then blocks until process 1 releases.
	progs := [][]sim.Op{
		pcs.TransferPCOps([]sim.Op{
			sim.Compute(10, nil, 0, "slow"),
			pcs.MarkPC(1, 1),
		}, 1),
		pcs.TransferPCOps([]sim.Op{
			pcs.MarkPC(2, 1), // not owned yet at cycle 0: skipped
		}, 2),
	}
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := Unpack(m.VarValue(pcs.Vars()[0])); got != (PC{3, 0}) {
		t.Errorf("final PC[0] = %v, want <3,0>", got)
	}
	// Broadcasts: process 1's mark and release, process 2's release — the
	// skipped mark generated no bus traffic.
	if stats.BusBroadcasts != 3 {
		t.Errorf("BusBroadcasts = %d, want 3", stats.BusBroadcasts)
	}
}

func TestSimPCsTransferRequiresOwnership(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1, SyncOpCost: 0})
	pcs := NewSimPCs(m, 1)
	// Process 2 transferring without process 1 ever releasing: deadlock,
	// detected by the machine.
	_, err := m.RunProcesses([][]sim.Op{pcs.TransferPCOps(nil, 2)})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestSimPCsWaitSatisfiedByOwnershipAdvance(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1, SyncOpCost: 0})
	pcs := NewSimPCs(m, 2)
	// Process 1 releases; a waiter on process 1's step 7 (never marked)
	// must be satisfied by the ownership advance.
	ops := append(pcs.TransferPCOps(nil, 1), pcs.WaitPC(3, 2, 7))
	if _, err := m.RunProcesses([][]sim.Op{ops}); err != nil {
		t.Fatal(err)
	}
}

// TestSimPCsWaitBoundaryNoOp: wait_PC whose source precedes the first
// iteration (iter-dist < 1) must be a satisfied no-op, exactly as
// PCSet.Wait's guard — not a panic in Fold. This is the regression test for
// the boundary-wait bug: the seed code panicked here.
func TestSimPCsWaitBoundaryNoOp(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1, SyncOpCost: 0})
	pcs := NewSimPCs(m, 2)
	ops := []sim.Op{
		pcs.WaitPC(1, 2, 1), // source iteration -1 does not exist
		pcs.WaitPC(2, 2, 3), // source iteration 0 does not exist
		pcs.WaitPC(3, 3, 1), // source iteration 0, dist == iter
	}
	ops = pcs.TransferPCOps(ops, 1)
	stats, err := m.RunProcesses([][]sim.Op{ops})
	if err != nil {
		t.Fatal(err)
	}
	// The no-op waits must not poll any variable.
	if stats.Polls != 0 {
		t.Errorf("boundary waits polled %d times, want 0", stats.Polls)
	}
	if got := Unpack(m.VarValue(pcs.Vars()[0])); got != (PC{3, 0}) {
		t.Errorf("final PC[0] = %v, want <3,0>", got)
	}
}

// TestSimPCsWaitBoundaryInExpandedProgram mirrors how codegen emits waits:
// every early iteration of a distance-d dependence carries a boundary wait.
func TestSimPCsWaitBoundaryInExpandedProgram(t *testing.T) {
	m := sim.New(sim.Config{Processors: 2, BusLatency: 1, SyncOpCost: 1})
	pcs := NewSimPCs(m, 2)
	const n, dist = 4, 3
	progs := make([][]sim.Op, 2)
	for pid := 0; pid < 2; pid++ {
		for it := int64(1 + pid); it <= n; it += 2 {
			progs[pid] = append(progs[pid], pcs.WaitPC(it, dist, 1))
			progs[pid] = append(progs[pid], pcs.MarkPC(it, 1))
			progs[pid] = pcs.TransferPCOps(progs[pid], it)
		}
	}
	if _, err := m.RunProcesses(progs); err != nil {
		t.Fatal(err)
	}
}

func TestPCString(t *testing.T) {
	if s := (PC{7, 3}).String(); s != "<7,3>" {
		t.Errorf("String = %q", s)
	}
}

func TestSplitPCSetAccessors(t *testing.T) {
	s := NewSplitPCSet(3)
	if s.X() != 3 {
		t.Errorf("X = %d", s.X())
	}
	if got := s.Load(1); got != (PC{2, 0}) {
		t.Errorf("Load(1) = %v, want <2,0>", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSplitPCSet(0) did not panic")
		}
	}()
	NewSplitPCSet(0)
}
