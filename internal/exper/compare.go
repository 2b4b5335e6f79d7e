package exper

import (
	"fmt"
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

// CompareResult is the outcome of diffing two benchmark snapshots. Every
// simulated field of a point is deterministic, so the two snapshots must
// agree on all of them exactly, and on the set of points.
type CompareResult struct {
	Report string // human-readable per-point delta table + summary

	SimMismatches int // points whose simulated fields differ
	MissingPoints int // points present in only one snapshot
}

// simFields are the simulated fields of a BenchRecord, by JSON name: every
// field but the point's identity.
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
// engine's behavior changed between the two builds.
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
	fmt.Fprintf(&sb, "benchmark snapshot delta: %s -> %s\n\n", oldSnap.Version, newSnap.Version)
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tscheme\tP\tcycles(old)\tcycles(new)\tdiff")
	for _, k := range keys {
		or, hasOld := oldByKey[k]
		nr, hasNew := newByKey[k]
		switch {
		case !hasOld:
			res.MissingPoints++
			fmt.Fprintf(tw, "%s\t%s\t%d\t-\t%d\tnew point\n", k.Workload, k.Scheme, k.Processors, nr.Cycles)
			continue
		case !hasNew:
			res.MissingPoints++
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t-\tpoint removed\n", k.Workload, k.Scheme, k.Processors, or.Cycles)
			continue
		}
		mark := ""
		if changed := changedSimFields(or, nr); len(changed) > 0 {
			res.SimMismatches++
			mark = "[changed: " + strings.Join(changed, ", ") + "]"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\n", k.Workload, k.Scheme, k.Processors, or.Cycles, nr.Cycles, mark)
	}
	tw.Flush()

	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "simulated-field mismatches: %d of %d shared point(s)\n", res.SimMismatches, len(keys)-res.MissingPoints)
	if res.SimMismatches > 0 {
		sb.WriteString("MISMATCH: simulated results differ — engine behavior differs between builds\n")
	}
	if res.MissingPoints > 0 {
		fmt.Fprintf(&sb, "MISSING: %d point(s) present in only one snapshot\n", res.MissingPoints)
	}
	res.Report = sb.String()
	return res
}

// Gate returns a non-nil error when any point's simulated fields differ
// between the snapshots or a point is present in only one of them. The
// simulated fields are exact: a change that alters simulated results on
// purpose commits a new baseline snapshot with it.
func (r *CompareResult) Gate() error {
	if r.SimMismatches > 0 {
		return fmt.Errorf("bench gate: %d grid point(s) differ in simulated fields", r.SimMismatches)
	}
	if r.MissingPoints > 0 {
		return fmt.Errorf("bench gate: %d grid point(s) missing from one snapshot", r.MissingPoints)
	}
	return nil
}
