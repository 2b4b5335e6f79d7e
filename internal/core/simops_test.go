package core

import (
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/sim"
)

func TestSimPCsBasicProtocol(t *testing.T) {
	m := sim.New(sim.Config{Processors: 2, SyncOpCost: 0})
	pcs := NewSimPCs(m, 2)
	if m.VarCount() != 2 {
		t.Fatalf("declared %d registers, want 2", m.VarCount())
	}
	// Process 1 on proc 0: get, set(1), transfer. Process 3 on proc 1:
	// waits for process 1's step 1, then gets ownership after the transfer.
	p1 := append(pcs.GetPC(nil, 1), sim.Compute(5, 0, 0, m.Text("S1@1")))
	p1 = pcs.TransferPCOps(pcs.SetPC(p1, 1, 1), 1)
	p3 := pcs.GetPC(pcs.WaitPC(nil, 3, 2, 1), 3) // wait_PC(2,1): process 1 at step 1
	p3 = append(p3, sim.Compute(1, 0, 0, m.Text("S1@3")))
	p3 = pcs.TransferPCOps(pcs.SetPC(p3, 3, 1), 3)
	progs := [][]sim.Op{p1, p3}
	if _, err := m.RunProcesses(progs); err != nil {
		t.Fatal(err)
	}
	// Slot 0 ended owned by process 5 (3+X).
	if got := unpack(m.VarValue(pcs.base)); got != (PC{5, 0}) {
		t.Errorf("final PC[0] = %v, want <5,0>", got)
	}
	// Slot 1 untouched: still owned by process 2.
	if got := unpack(m.VarValue(pcs.base + 1)); got != (PC{2, 0}) {
		t.Errorf("final PC[1] = %v, want <2,0>", got)
	}
}

func TestSimPCsImprovedProtocol(t *testing.T) {
	m := sim.New(sim.Config{Processors: 2, BusLatency: 1, SyncOpCost: 0})
	pcs := NewSimPCs(m, 1)
	// Process 2's early mark (issued before ownership arrives) is skipped
	// without waiting; its transfer then blocks until process 1 releases.
	progs := [][]sim.Op{
		pcs.TransferPCOps(pcs.MarkPC([]sim.Op{sim.Compute(10, 0, 0, m.Text("slow"))}, 1, 1), 1),
		pcs.TransferPCOps(pcs.MarkPC(nil, 2, 1), 2), // mark not owned yet at cycle 0: skipped
	}
	stats, err := m.RunProcesses(progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := unpack(m.VarValue(pcs.base)); got != (PC{3, 0}) {
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
	ops := pcs.WaitPC(pcs.TransferPCOps(nil, 1), 3, 2, 7)
	if _, err := m.RunProcesses([][]sim.Op{ops}); err != nil {
		t.Fatal(err)
	}
}

// TestSimPCsWaitBoundaryNoOp: wait_PC whose source precedes the first
// iteration (iter-dist < 1) must be a satisfied no-op, exactly as
// SplitPCSet.Wait's guard — not a panic in Fold. This is the regression test for
// the boundary-wait bug: the seed code panicked here.
func TestSimPCsWaitBoundaryNoOp(t *testing.T) {
	m := sim.New(sim.Config{Processors: 1, SyncOpCost: 0})
	pcs := NewSimPCs(m, 2)
	ops := pcs.WaitPC(nil, 1, 2, 1) // source iteration -1 does not exist
	ops = pcs.WaitPC(ops, 2, 2, 3)  // source iteration 0 does not exist
	ops = pcs.WaitPC(ops, 3, 3, 1)  // source iteration 0, dist == iter
	ops = pcs.TransferPCOps(ops, 1)
	stats, err := m.RunProcesses([][]sim.Op{ops})
	if err != nil {
		t.Fatal(err)
	}
	// The no-op waits must not poll any variable.
	if stats.Polls != 0 {
		t.Errorf("boundary waits polled %d times, want 0", stats.Polls)
	}
	if got := unpack(m.VarValue(pcs.base)); got != (PC{3, 0}) {
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
			progs[pid] = pcs.WaitPC(progs[pid], it, dist, 1)
			progs[pid] = pcs.MarkPC(progs[pid], it, 1)
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
	for k := 0; k < 3; k++ {
		if got := s.Load(k); got != InitialPC(k) {
			t.Errorf("Load(%d) = %v, want %v", k, got, InitialPC(k))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSplitPCSet(0) did not panic")
		}
	}()
	NewSplitPCSet(0)
}
