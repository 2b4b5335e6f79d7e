package sim

import (
	"reflect"
	"testing"

	"github.com/csrd-repro/datasync/internal/fault"
)

// recycleBody appends iteration iter of a dependent loop that exercises every
// op-bearing event: a register chain wait and signal, timed computes whose
// semantics add iter to *sum, and, with a memory-resident flag, a polled
// wait, an RMW and a memory write. Iterations alternate in length and in
// which op comes last, so a recycled buffer carries a stale tail past the
// new length and both a compute and a memory write complete an iteration.
func recycleBody(reg, mem, ctr VarID, useMem bool, sum *int64) func([]Op, int64) []Op {
	return func(ops []Op, iter int64) []Op {
		ops = append(ops, WaitGE(reg, iter-1, "chain"))
		if useMem {
			ops = append(ops, WaitGE(mem, iter-1, "flag"))
		}
		for k := int64(0); k <= iter%3; k++ {
			ops = append(ops, Compute(2+k, EffectFunc(func(int64) { *sum += iter }), 0, "work"))
		}
		ops = append(ops, WriteVar(reg, iter, "signal"))
		if useMem {
			ops = append(ops, RMW(ctr, func(x int64) int64 { return x + 1 }, "count"), WriteVar(mem, iter, "flag-set"))
		}
		if iter%2 == 0 {
			ops = append(ops, Compute(3, EffectFunc(func(int64) { *sum += iter }), 0, "tail"))
		}
		return ops
	}
}

// TestProgramRecyclingInvariant pins the Program ownership contract: a
// program may overwrite all of dst[:cap(dst)] because the machine holds no
// reference into a processor's previous iteration when it dispatches the
// next one. The recycling program first fills its whole buffer with poison
// (a compute whose semantics panic, a wait on a never-written variable) and
// only then appends the real ops, so a machine that read a recycled slot
// would panic, deadlock or count different cycles. Its runs must equal those
// of the same program ignoring dst.
func TestProgramRecyclingInvariant(t *testing.T) {
	base := Config{Processors: 3, BusLatency: 2, MemLatency: 2, Modules: 2, SyncOpCost: 1, SchedOverhead: 1}
	chunked := base
	chunked.Dispatch, chunked.ChunkSize = DispatchChunked, 3
	recovery := chunked
	recovery.FaultPlan = fault.Plan{HaltProc: 1, HaltAtCycle: 12}
	recovery.Recover = Recover{AfterCycles: 25}
	cases := []struct {
		name   string
		cfg    Config
		useMem bool
	}{
		{"in-order", base, false},
		{"chunked", chunked, false},
		{"memory-resident", base, true},
		{"recovery", recovery, false},
	}
	const iters = 24
	for _, c := range cases {
		run := func(recycle bool) (Stats, int64, int) {
			m := New(c.cfg)
			reg := m.NewRegVar("chain", 0)
			never := m.NewRegVar("never", 0)
			mem := m.NewMemVar("flag", 1, 0)
			ctr := m.NewMemVar("count", 0, 0)
			var sum int64
			body := recycleBody(reg, mem, ctr, c.useMem, &sum)
			reused := 0
			prog := func(dst []Op, iter int64) []Op { return body(nil, iter) }
			if recycle {
				prog = func(dst []Op, iter int64) []Op {
					full := dst[:cap(dst)]
					for i := range full {
						if i%2 == 0 {
							full[i] = Compute(1, EffectFunc(func(int64) { panic("sim: executed a recycled op") }), 0, "poison")
						} else {
							full[i] = WaitGE(never, 1, "poison")
						}
					}
					if cap(dst) > 0 {
						reused++
					}
					return body(dst[:0], iter)
				}
			}
			st, err := m.RunLoop(iters, prog)
			if err != nil {
				t.Fatalf("%s (recycle=%v): %v", c.name, recycle, err)
			}
			return st, sum, reused
		}
		want, wantSum, _ := run(false)
		got, gotSum, reused := run(true)
		if reused == 0 {
			t.Errorf("%s: the machine never handed a previous iteration's buffer back", c.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled-buffer stats differ:\n got %+v\nwant %+v", c.name, got, want)
		}
		if gotSum != wantSum {
			t.Errorf("%s: semantics sum %d with a recycled buffer, want %d", c.name, gotSum, wantSum)
		}
		if c.cfg.Recover.Enabled() && (want.Recovery == nil || want.Recovery.Iteration == 0) {
			t.Errorf("%s: the halt did not strike mid-iteration: %+v", c.name, want.Recovery)
		}
	}
}
