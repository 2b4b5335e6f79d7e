package exper

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// pointKey identifies one grid point across snapshots.
type pointKey struct {
	Workload   string
	Scheme     string
	Processors int
}

// CompareResult is the outcome of diffing two benchmark snapshots. It gates
// two things. Every simulated field of a point is deterministic, so the two
// snapshots must agree on all of them exactly. Wall time is compared as
// normalized cycle throughput: simulated cycles per wall nanosecond,
// multiplied by the measuring host's calibration time so raw scalar speed
// cancels and a baseline recorded on one machine can gate runs on another.
type CompareResult struct {
	Report string // human-readable per-point delta table + summary

	SimMismatches int // points whose simulated fields differ
	MissingPoints int // points present in only one snapshot

	OldNorm, NewNorm float64 // normalized cycle throughput (NaN if untimed)
	DeltaPct         float64 // NewNorm vs OldNorm, percent (NaN if untimed)
}

// normRate is cycles per wall nanosecond scaled by the host calibration time.
func normRate(cycles, wall, calib int64) float64 {
	if wall <= 0 || calib <= 0 {
		return math.NaN()
	}
	return float64(cycles) / float64(wall) * float64(calib)
}

// simFields are the simulated fields of a BenchRecord, by JSON name: every
// field but the point's identity and its wall time.
var simFields = []struct {
	name   string
	differ func(a, b *BenchRecord) bool
}{
	{"iterations", func(a, b *BenchRecord) bool { return a.Iterations != b.Iterations }},
	{"serialCycles", func(a, b *BenchRecord) bool { return a.SerialCycles != b.SerialCycles }},
	{"cycles", func(a, b *BenchRecord) bool { return a.Cycles != b.Cycles }},
	{"speedup", func(a, b *BenchRecord) bool { return a.Speedup != b.Speedup }},
	{"utilization", func(a, b *BenchRecord) bool { return a.Utilization != b.Utilization }},
	{"syncOps", func(a, b *BenchRecord) bool { return a.SyncOps != b.SyncOps }},
	{"waitSyncCycles", func(a, b *BenchRecord) bool { return a.WaitSync != b.WaitSync }},
	{"busBroadcasts", func(a, b *BenchRecord) bool { return a.BusTx != b.BusTx }},
	{"polls", func(a, b *BenchRecord) bool { return a.Polls != b.Polls }},
	{"syncVars", func(a, b *BenchRecord) bool { return a.SyncVars != b.SyncVars }},
	{"storageWords", func(a, b *BenchRecord) bool { return a.StorageWords != b.StorageWords }},
}

// changedSimFields lists the simulated fields in which two records of one
// point differ.
func changedSimFields(a, b *BenchRecord) []string {
	var changed []string
	for _, f := range simFields {
		if f.differ(a, b) {
			changed = append(changed, f.name)
		}
	}
	return changed
}

// Compare diffs two snapshots point by point. Simulated measurements are
// deterministic, so a point whose simulated fields differ means the
// engine's behavior changed between the two builds; wall times are the
// only host-dependent figures and are compared after calibration
// normalization.
func Compare(oldSnap, newSnap *BenchSnapshot) *CompareResult {
	res := &CompareResult{}
	oldByKey := make(map[pointKey]*BenchRecord, len(oldSnap.Records))
	for i := range oldSnap.Records {
		r := &oldSnap.Records[i]
		oldByKey[pointKey{r.Workload, r.Scheme, r.Processors}] = r
	}
	newByKey := make(map[pointKey]*BenchRecord, len(newSnap.Records))
	keys := make([]pointKey, 0, len(newSnap.Records))
	for i := range newSnap.Records {
		r := &newSnap.Records[i]
		k := pointKey{r.Workload, r.Scheme, r.Processors}
		newByKey[k] = r
		keys = append(keys, k)
	}
	for k := range oldByKey {
		if _, ok := newByKey[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		return a.Processors < b.Processors
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "benchmark snapshot delta: %s -> %s\n", oldSnap.Version, newSnap.Version)
	fmt.Fprintf(&sb, "calibration: old %s  new %s\n\n", fmtNanos(oldSnap.CalibNanos), fmtNanos(newSnap.CalibNanos))
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tscheme\tP\tcycles(old)\tcycles(new)\twall(old)\twall(new)\tnorm-thpt Δ")

	var oldCycles, oldWall, newCycles, newWall int64
	for _, k := range keys {
		or, hasOld := oldByKey[k]
		nr, hasNew := newByKey[k]
		switch {
		case !hasOld:
			res.MissingPoints++
			fmt.Fprintf(tw, "%s\t%s\t%d\t-\t%d\t-\t%s\tnew point\n",
				k.Workload, k.Scheme, k.Processors, nr.Cycles, fmtNanos(nr.WallNanos))
			continue
		case !hasNew:
			res.MissingPoints++
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t-\t%s\t-\tpoint removed\n",
				k.Workload, k.Scheme, k.Processors, or.Cycles, fmtNanos(or.WallNanos))
			continue
		}
		mark := ""
		if changed := changedSimFields(or, nr); len(changed) > 0 {
			res.SimMismatches++
			mark = " [changed: " + strings.Join(changed, ", ") + "]"
		}
		oldCycles += or.Cycles
		oldWall += or.WallNanos
		newCycles += nr.Cycles
		newWall += nr.WallNanos
		delta := "-"
		po := normRate(or.Cycles, or.WallNanos, oldSnap.CalibNanos)
		pn := normRate(nr.Cycles, nr.WallNanos, newSnap.CalibNanos)
		if !math.IsNaN(po) && !math.IsNaN(pn) {
			delta = fmt.Sprintf("%+.1f%%", (pn/po-1)*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\t%s%s\n",
			k.Workload, k.Scheme, k.Processors, or.Cycles, nr.Cycles,
			fmtNanos(or.WallNanos), fmtNanos(nr.WallNanos), delta, mark)
	}
	tw.Flush()

	res.OldNorm = normRate(oldCycles, oldWall, oldSnap.CalibNanos)
	res.NewNorm = normRate(newCycles, newWall, newSnap.CalibNanos)
	res.DeltaPct = (res.NewNorm/res.OldNorm - 1) * 100

	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "simulated-field mismatches: %d of %d shared point(s)\n", res.SimMismatches, len(keys)-res.MissingPoints)
	if res.SimMismatches > 0 {
		sb.WriteString("MISMATCH: simulated results differ — engine behavior differs between builds\n")
	}
	if res.MissingPoints > 0 {
		fmt.Fprintf(&sb, "MISSING: %d point(s) present in only one snapshot\n", res.MissingPoints)
	}
	if math.IsNaN(res.DeltaPct) {
		sb.WriteString("aggregate: no normalized throughput (a snapshot lacks wall timing or calibration)\n")
	} else {
		fmt.Fprintf(&sb, "aggregate normalized cycle throughput: old %.1f  new %.1f  (%+.1f%%)\n",
			res.OldNorm, res.NewNorm, res.DeltaPct)
		fmt.Fprintf(&sb, "aggregate wall time: old %s  new %s over %d shared points\n",
			fmtNanos(oldWall), fmtNanos(newWall), len(keys)-res.MissingPoints)
	}
	res.Report = sb.String()
	return res
}

// Gate returns a non-nil error when any point's simulated fields differ
// between the snapshots, when a point is present in only one of them, or
// when the new snapshot's normalized cycle throughput regressed by more
// than pct percent (or cannot be computed). The simulated fields are exact:
// a change that alters simulated results on purpose commits a new baseline
// snapshot with it.
func (r *CompareResult) Gate(pct float64) error {
	if r.SimMismatches > 0 {
		return fmt.Errorf("bench gate: %d grid point(s) differ in simulated fields", r.SimMismatches)
	}
	if r.MissingPoints > 0 {
		return fmt.Errorf("bench gate: %d grid point(s) missing from one snapshot", r.MissingPoints)
	}
	if math.IsNaN(r.DeltaPct) {
		return fmt.Errorf("bench gate: snapshots lack wall timing or calibration; cannot compute normalized throughput")
	}
	if r.DeltaPct < -pct {
		return fmt.Errorf("bench gate: normalized cycle throughput regressed %.1f%% (threshold %.1f%%)", -r.DeltaPct, pct)
	}
	return nil
}

// fmtNanos renders a nanosecond count as milliseconds for the delta table.
func fmtNanos(n int64) string {
	if n <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", float64(n)/1e6)
}
