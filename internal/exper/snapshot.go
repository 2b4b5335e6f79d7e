package exper

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/workloads"
)

// SnapshotVersion identifies the snapshot schema. v3 dropped v2's per-record
// wall times and host calibration figure: a snapshot records only simulated
// results, which are properties of the abstract machine, not of the host.
// v1 and v2 files still load (json.Unmarshal ignores their extra fields).
const SnapshotVersion = "dsbench-snapshot-v3"

// BenchRecord is one measured point of the benchmark snapshot: a workload x
// scheme x machine triple with the headline simulator measurements. The
// simulator is deterministic, so records from two builds of the same code
// are equal field for field.
type BenchRecord struct {
	Workload     string  `json:"workload"`
	Scheme       string  `json:"scheme"`
	Processors   int     `json:"processors"`
	Iterations   int64   `json:"iterations"`
	SerialCycles int64   `json:"serialCycles"`
	Cycles       int64   `json:"cycles"`
	Speedup      float64 `json:"speedup"`
	Utilization  float64 `json:"utilization"`
	SyncOps      int64   `json:"syncOps"`
	WaitSync     int64   `json:"waitSyncCycles"`
	BusTx        int64   `json:"busBroadcasts"`
	Polls        int64   `json:"polls"`
	SyncVars     int     `json:"syncVars"`
	StorageWords int64   `json:"storageWords"`
}

// BenchSnapshot is the machine-readable output of `dsbench -json`: a
// canonical workload x scheme grid measured on the base machine. The
// committed BENCH_*.json files are snapshots, and the newest one is an exact
// oracle: TestSnapshotMatchesNewestBaseline requires a fresh snapshot to
// equal it on every simulated field of every point.
type BenchSnapshot struct {
	Version string        `json:"version"`
	Go      string        `json:"go"`
	Records []BenchRecord `json:"records"`
}

// benchPair is one cell of the canonical grid. Scheme construction is
// deferred (mk) because the instance-based scheme is stateful and must be
// rebuilt per run.
type benchPair struct {
	workload string
	build    func() *codegen.Workload
	scheme   string
	mk       func() codegen.Scheme
}

// snapshotPairs is the canonical grid. Flat workloads run under every
// iteration-level scheme; the nested workload additionally exercises the
// pipelined-outer scheme (the only one defined for depth 2).
func snapshotPairs() []benchPair {
	flat := []struct {
		name  string
		build func() *codegen.Workload
	}{
		{"fig21", func() *codegen.Workload { return workloads.Fig21(120, 4) }},
		{"branchy", func() *codegen.Workload { return workloads.Branchy(120, 4) }},
		{"recurrence", func() *codegen.Workload { return workloads.Recurrence(120, 2, 4) }},
		{"stencil", func() *codegen.Workload { return workloads.Stencil(120, 4) }},
	}
	schemes := []struct {
		name string
		mk   func() codegen.Scheme
	}{
		{"process", func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: true} }},
		{"process-basic", func() codegen.Scheme { return codegen.ProcessOriented{X: 8, Improved: false} }},
		{"statement", func() codegen.Scheme { return codegen.StatementOriented{} }},
		{"ref", func() codegen.Scheme { return codegen.RefBased{} }},
		{"instance", func() codegen.Scheme { return codegen.NewInstanceBased() }},
	}
	var out []benchPair
	for _, w := range flat {
		for _, s := range schemes {
			out = append(out, benchPair{w.name, w.build, s.name, s.mk})
		}
	}
	out = append(out, benchPair{
		"nested",
		func() *codegen.Workload { return workloads.Nested(24, 12, 4) },
		"pipeline",
		func() codegen.Scheme { return codegen.PipelinedOuter{X: 8, G: 1} },
	})
	return out
}

// Snapshot measures the canonical grid at 4 and 8 processors on the base
// machine and returns the machine-readable snapshot.
func Snapshot() (*BenchSnapshot, error) {
	snap := &BenchSnapshot{Version: SnapshotVersion, Go: runtime.Version()}
	for _, procs := range []int{4, 8} {
		for _, pair := range snapshotPairs() {
			res, err := codegen.Run(pair.build(), pair.mk(), baseCfg(procs))
			if err != nil {
				return nil, fmt.Errorf("snapshot %s/%s at P=%d: %w", pair.workload, pair.scheme, procs, err)
			}
			st := res.Stats
			snap.Records = append(snap.Records, BenchRecord{
				Workload:     pair.workload,
				Scheme:       pair.scheme,
				Processors:   procs,
				Iterations:   st.Iterations,
				SerialCycles: res.SerialCycles,
				Cycles:       st.Cycles,
				Speedup:      res.Speedup(),
				Utilization:  st.Utilization(),
				SyncOps:      st.SyncOps,
				WaitSync:     st.WaitSyncTotal(),
				BusTx:        st.BusBroadcasts,
				Polls:        st.Polls,
				SyncVars:     res.Foot.SyncVars,
				StorageWords: res.Foot.StorageWords,
			})
		}
	}
	return snap, nil
}

// LoadSnapshot reads a snapshot file of any version. A file without records
// is an error: comparing against it would pass vacuously.
func LoadSnapshot(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap BenchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Records) == 0 {
		return nil, fmt.Errorf("%s: snapshot has no records", path)
	}
	return &snap, nil
}
