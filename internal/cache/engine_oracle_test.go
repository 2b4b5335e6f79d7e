package cache

// Determinism-as-refactor-oracle for the simulator's event engine.
//
// Every grid point below runs one workload x scheme pair under one machine
// configuration (clean, bus-coverage, seeded fault plans, armed recovery)
// and folds everything observable about the run into one SHA-256 digest:
// the cache canon key, the full Stats, the complete synchronization trace,
// and — for runs that stall — the error text. The golden digests were
// generated from the engine as of the PR that introduced this test
// (DSORACLE_PRINT=1 go test ./internal/cache -run EngineOracle prints a
// fresh table) and pin the engine's observable behavior bit-for-bit:
// any event-queue, pooling or batching change that perturbs event order,
// cycle accounting, fault schedules or recovery timing fails here first.
//
// The digests must also be independent of GOMAXPROCS: the simulator is
// single-goroutine, so host parallelism may never leak into a run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/workloads"
)

type oraclePoint struct {
	workload string
	build    func() *codegen.Workload
	scheme   string
	mk       func() codegen.Scheme
}

// oraclePoints mirrors the dsbench snapshot grid at a smaller iteration
// count: every flat workload under every iteration-level scheme, plus the
// nested workload under the pipelined-outer scheme.
func oraclePoints() []oraclePoint {
	flat := []struct {
		name  string
		build func() *codegen.Workload
	}{
		{"fig21", func() *codegen.Workload { return workloads.Fig21(40, 4) }},
		{"branchy", func() *codegen.Workload { return workloads.Branchy(40, 4) }},
		{"recurrence", func() *codegen.Workload { return workloads.Recurrence(40, 2, 4) }},
		{"stencil", func() *codegen.Workload { return workloads.Stencil(40, 4) }},
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
	var out []oraclePoint
	for _, w := range flat {
		for _, s := range schemes {
			out = append(out, oraclePoint{w.name, w.build, s.name, s.mk})
		}
	}
	out = append(out, oraclePoint{
		"nested",
		func() *codegen.Workload { return workloads.Nested(8, 6, 4) },
		"pipeline",
		func() codegen.Scheme { return codegen.PipelinedOuter{X: 8, G: 1} },
	})
	return out
}

// oracleConfigs covers the engine's scheduling paths: serialized bus,
// write coverage, zero-latency commits with injected delays/dups, a mixed
// fault plan (delay + stale + dup + slow module), broadcast drops (stalls),
// torn two-field commits, and a healed halt under chunked dispatch.
func oracleConfigs() []struct {
	name string
	cfg  sim.Config
} {
	base := sim.Config{Processors: 4, BusLatency: 1, MemLatency: 2, Modules: 4,
		SyncOpCost: 1, SchedOverhead: 1}
	coverage := base
	coverage.BusLatency = 8
	coverage.BusCoverage = true
	zerolat := sim.Config{Processors: 4, MemLatency: 1, Modules: 2,
		FaultPlan: fault.Plan{Seed: 21, DelayProb: 0.3, DelayCycles: 4, DupProb: 0.3}}
	faulty := base
	faulty.FaultPlan = fault.Plan{Seed: 7, DelayProb: 0.3, DelayCycles: 5,
		StaleProb: 0.3, StaleCycles: 4, DupProb: 0.2, ModuleDelayProb: 0.3, ModuleDelayCycles: 3}
	drop := base
	drop.MaxCycles = 50_000
	drop.FaultPlan = fault.Plan{Seed: 3, DropProb: 0.5}
	torn := base
	torn.MaxCycles = 50_000
	torn.FaultPlan = fault.Plan{Seed: 13, TornProb: 0.4, TornWindow: 3}
	heal := base
	heal.Dispatch = sim.DispatchChunked
	heal.ChunkSize = 4
	heal.FaultPlan = fault.Plan{Seed: 5, HaltProc: 1, HaltAtCycle: 60}
	heal.Recover = sim.Recover{AfterCycles: 30, MaxReclaims: 1}
	return []struct {
		name string
		cfg  sim.Config
	}{
		{"clean", base},
		{"coverage", coverage},
		{"zerolat", zerolat},
		{"faulty", faulty},
		{"drop", drop},
		{"torn", torn},
		{"heal", heal},
	}
}

// engineDigest runs one grid point on the given workload and digests
// everything observable.
func engineDigest(w *codegen.Workload, sch codegen.Scheme, cfg sim.Config) (string, error) {
	res, trace, err := codegen.RunSyncTraced(w, sch, cfg)
	h := sha256.New()
	fmt.Fprintf(h, "key=%x\n", RequestKey(w, sch.Name(), cfg))
	if err != nil {
		fmt.Fprintf(h, "err=%s\n", err.Error())
	}
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		return "", fmt.Errorf("marshal stats: %w", err)
	}
	fmt.Fprintf(h, "stats=%s\nserial=%d\ntrace[%d]\n", stats, res.SerialCycles, len(trace))
	for _, e := range trace {
		je, err := json.Marshal(e)
		if err != nil {
			return "", fmt.Errorf("marshal trace event: %w", err)
		}
		h.Write(je)
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func oracleDigests(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, c := range oracleConfigs() {
		for _, p := range oraclePoints() {
			d, err := engineDigest(p.build(), p.mk(), c.cfg)
			if err != nil {
				t.Fatalf("%s/%s@%s: %v", p.workload, p.scheme, c.name, err)
			}
			got[p.workload+"/"+p.scheme+"@"+c.name] = d
		}
	}
	return got
}

// TestEngineOracle pins the engine's observable behavior against the golden
// digests at GOMAXPROCS 1, 4 and 8. Regenerate goldens with
// DSORACLE_PRINT=1 go test ./internal/cache -run EngineOracle -v
// only when an engine change is *intended* to alter observable behavior.
func TestEngineOracle(t *testing.T) {
	if os.Getenv("DSORACLE_PRINT") != "" {
		got := oracleDigests(t)
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\t%q: %q,\n", n, got[n])
		}
		t.Skip("printed fresh goldens")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", gmp), func(t *testing.T) {
			runtime.GOMAXPROCS(gmp)
			got := oracleDigests(t)
			if len(got) != len(engineGoldens) {
				t.Errorf("grid has %d points, goldens cover %d", len(got), len(engineGoldens))
			}
			for name, d := range got {
				want, ok := engineGoldens[name]
				if !ok {
					t.Errorf("%s: no golden digest (regenerate with DSORACLE_PRINT=1)", name)
					continue
				}
				if d != want {
					t.Errorf("%s: digest %s, golden %s — engine behavior changed", name, d, want)
				}
			}
		})
	}
}

// TestEngineOracleSharedWorkload replays the oracle the way
// service.EvalSweep evaluates a sweep: each point's Workload is built once
// and every configuration runs on it from its own goroutine. The first run
// computes the Workload's shared run invariants (serial oracle, dependence
// analysis, data plan); every digest must still equal its golden, and the
// race detector (CI runs go test -race ./internal/...) checks the sharing.
func TestEngineOracleSharedWorkload(t *testing.T) {
	cfgs := oracleConfigs()
	for _, p := range oraclePoints() {
		w := p.build()
		digests := make([]string, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, c := range cfgs {
			wg.Add(1)
			go func(i int, cfg sim.Config) {
				defer wg.Done()
				digests[i], errs[i] = engineDigest(w, p.mk(), cfg)
			}(i, c.cfg)
		}
		wg.Wait()
		for i, c := range cfgs {
			name := p.workload + "/" + p.scheme + "@" + c.name
			if errs[i] != nil {
				t.Errorf("%s: %v", name, errs[i])
			} else if digests[i] != engineGoldens[name] {
				t.Errorf("%s: digest %s on a shared workload, golden %s", name, digests[i], engineGoldens[name])
			}
		}
	}
}

// engineGoldens: generated with DSORACLE_PRINT=1 from the pre-refactor
// closure-based engine; the typed-event engine must reproduce every digest.
var engineGoldens = map[string]string{
	"branchy/instance@clean":            "00647a7474da3ebf",
	"branchy/instance@coverage":         "650b9179a0501be4",
	"branchy/instance@drop":             "6118250451eebc6e",
	"branchy/instance@faulty":           "26eaf3e9137c63ee",
	"branchy/instance@heal":             "ff81a5f4dd9d9677",
	"branchy/instance@torn":             "7a444e14119be680",
	"branchy/instance@zerolat":          "d0c2ec3c050c0675",
	"branchy/process-basic@clean":       "bb40378cb8921b71",
	"branchy/process-basic@coverage":    "fe8209c05fa75eb8",
	"branchy/process-basic@drop":        "5cc14768d6f17db1",
	"branchy/process-basic@faulty":      "e07d48aaeb602a64",
	"branchy/process-basic@heal":        "52faaf5af36868cc",
	"branchy/process-basic@torn":        "74cc1da14f15e0d2",
	"branchy/process-basic@zerolat":     "028a0311f42fb8eb",
	"branchy/process@clean":             "7718e4b5d1383156",
	"branchy/process@coverage":          "3c5cc19d91d4f8fb",
	"branchy/process@drop":              "87b19f6ff849f137",
	"branchy/process@faulty":            "b7acb080798378c4",
	"branchy/process@heal":              "a489a68409a9ea02",
	"branchy/process@torn":              "9cf24e06ef905165",
	"branchy/process@zerolat":           "ec1efbe7b1e5d289",
	"branchy/ref@clean":                 "4a3d7d1ee0fe4e30",
	"branchy/ref@coverage":              "ca6fe4d6ea2b7dcc",
	"branchy/ref@drop":                  "66634c6fb068bdc2",
	"branchy/ref@faulty":                "dcaba05d3972ed6c",
	"branchy/ref@heal":                  "8d929097eecbfcca",
	"branchy/ref@torn":                  "552e73657fe73dcb",
	"branchy/ref@zerolat":               "1605faad75a404eb",
	"branchy/statement@clean":           "478881be7bceb127",
	"branchy/statement@coverage":        "75ff986b1674b2d2",
	"branchy/statement@drop":            "929c267748d09fef",
	"branchy/statement@faulty":          "2d1de19cab75801b",
	"branchy/statement@heal":            "9094d4d729c37be3",
	"branchy/statement@torn":            "57e3d05aff77528f",
	"branchy/statement@zerolat":         "691d14867511b7be",
	"fig21/instance@clean":              "2111833fff80acde",
	"fig21/instance@coverage":           "c82f0716a9050b4f",
	"fig21/instance@drop":               "9de32811b4effa9b",
	"fig21/instance@faulty":             "8f220770db547e8f",
	"fig21/instance@heal":               "9900493792b5f372",
	"fig21/instance@torn":               "aacc5bf2d111005d",
	"fig21/instance@zerolat":            "bb7b0c62ab1f4dff",
	"fig21/process-basic@clean":         "ef1b2c3df5d214b7",
	"fig21/process-basic@coverage":      "c7e5a7f5b053f8c4",
	"fig21/process-basic@drop":          "b55063c3890392b1",
	"fig21/process-basic@faulty":        "5ce98974d8b3b2a4",
	"fig21/process-basic@heal":          "789c4fb973e7ea5b",
	"fig21/process-basic@torn":          "69f1a52bbbf8ed16",
	"fig21/process-basic@zerolat":       "2d051f9355fff7b7",
	"fig21/process@clean":               "324e6d4df1fbcfb3",
	"fig21/process@coverage":            "85cb4c6e7d599875",
	"fig21/process@drop":                "76da10c7cb48f303",
	"fig21/process@faulty":              "05da095749ee5e82",
	"fig21/process@heal":                "f7e84b34b8825f13",
	"fig21/process@torn":                "54e517bf8dfc249e",
	"fig21/process@zerolat":             "0f784cf31644d39e",
	"fig21/ref@clean":                   "20a8715c92714fe0",
	"fig21/ref@coverage":                "5b852ffd27f0f476",
	"fig21/ref@drop":                    "f611f1c602029009",
	"fig21/ref@faulty":                  "954fb19e940ca648",
	"fig21/ref@heal":                    "953b6552c240591b",
	"fig21/ref@torn":                    "062ec50a72ce940b",
	"fig21/ref@zerolat":                 "3edcf8977bb5560e",
	"fig21/statement@clean":             "b8aac346547c5d5a",
	"fig21/statement@coverage":          "a4855661e8857fe5",
	"fig21/statement@drop":              "dc13b8688617cac0",
	"fig21/statement@faulty":            "c4dc40d9d8c7ab58",
	"fig21/statement@heal":              "fe3e0f7a9a680b34",
	"fig21/statement@torn":              "96f32b6434dc3749",
	"fig21/statement@zerolat":           "c1bc54d917369f2d",
	"nested/pipeline@clean":             "70f3d009062a16d1",
	"nested/pipeline@coverage":          "1dd9f8366626fad8",
	"nested/pipeline@drop":              "37323c8d94408c6d",
	"nested/pipeline@faulty":            "63938fec67de77a9",
	"nested/pipeline@heal":              "8852bc24135b96b9",
	"nested/pipeline@torn":              "c97f76fbfa1698c4",
	"nested/pipeline@zerolat":           "fd6453087f2af0c3",
	"recurrence/instance@clean":         "f30e75f7d7ddb869",
	"recurrence/instance@coverage":      "0a6fa79b411e85cf",
	"recurrence/instance@drop":          "f6ec2e33e4788b6f",
	"recurrence/instance@faulty":        "6ea7c57e965e2abd",
	"recurrence/instance@heal":          "b143f6dce0865e2d",
	"recurrence/instance@torn":          "7a1e859fdd4083ac",
	"recurrence/instance@zerolat":       "e476eaf8e1e7b009",
	"recurrence/process-basic@clean":    "3110defeb57cdc16",
	"recurrence/process-basic@coverage": "83fe62ac2570b3ec",
	"recurrence/process-basic@drop":     "f557fb06381cd095",
	"recurrence/process-basic@faulty":   "92512fc1aa049d89",
	"recurrence/process-basic@heal":     "2e41b54d558d16cc",
	"recurrence/process-basic@torn":     "34a5143eb303ed64",
	"recurrence/process-basic@zerolat":  "4ecb1761feb8c877",
	"recurrence/process@clean":          "a2f7e70cf0252363",
	"recurrence/process@coverage":       "11e6218edb2d66f2",
	"recurrence/process@drop":           "b06fd5ef6c1cc6d9",
	"recurrence/process@faulty":         "fac0940d2980a8b3",
	"recurrence/process@heal":           "3589603df316a926",
	"recurrence/process@torn":           "e439a4050f99c0ce",
	"recurrence/process@zerolat":        "d7ecdfe9fe0f669e",
	"recurrence/ref@clean":              "005d0b19c5d3a01d",
	"recurrence/ref@coverage":           "6a923316e19ca349",
	"recurrence/ref@drop":               "0b8896e790da9de4",
	"recurrence/ref@faulty":             "b7c09970996dec21",
	"recurrence/ref@heal":               "f1eec8fe6aaf78b2",
	"recurrence/ref@torn":               "8503cff06ffaf2ee",
	"recurrence/ref@zerolat":            "94645ca61f855fd1",
	"recurrence/statement@clean":        "4150e9f07d6d46d7",
	"recurrence/statement@coverage":     "d90b5b5ce3bf977b",
	"recurrence/statement@drop":         "3f83c2dccdc986e9",
	"recurrence/statement@faulty":       "c96ec26d557a8352",
	"recurrence/statement@heal":         "96915df128d2acf8",
	"recurrence/statement@torn":         "51dbd34796741329",
	"recurrence/statement@zerolat":      "9ef944c90c30b902",
	"stencil/instance@clean":            "826bb39893dcaeef",
	"stencil/instance@coverage":         "c542f333b4a6f109",
	"stencil/instance@drop":             "41b03200be3fadb3",
	"stencil/instance@faulty":           "04ab50c4acc96377",
	"stencil/instance@heal":             "cee0d49a3957b7ee",
	"stencil/instance@torn":             "59d597dfb802f9be",
	"stencil/instance@zerolat":          "1fb0d362a13bc7fc",
	"stencil/process-basic@clean":       "d844fe8e3463a479",
	"stencil/process-basic@coverage":    "9617faf4f754cd07",
	"stencil/process-basic@drop":        "f3feb38cc98e3973",
	"stencil/process-basic@faulty":      "f43d911f59d01707",
	"stencil/process-basic@heal":        "4dc9ef9e02d7fde7",
	"stencil/process-basic@torn":        "8534ff84174d26bb",
	"stencil/process-basic@zerolat":     "827965efad247fb9",
	"stencil/process@clean":             "bc6b4cb15bd7720e",
	"stencil/process@coverage":          "8d5fedcbc78e8ce8",
	"stencil/process@drop":              "933d881ef7a80d7d",
	"stencil/process@faulty":            "d00590827d4735a3",
	"stencil/process@heal":              "ba0e62e046862751",
	"stencil/process@torn":              "781b612fcad7a1a2",
	"stencil/process@zerolat":           "6fb5c397ac4b17f9",
	"stencil/ref@clean":                 "9888abd538fcf076",
	"stencil/ref@coverage":              "1516905470198dde",
	"stencil/ref@drop":                  "9a3fa0c4d182b680",
	"stencil/ref@faulty":                "ed6262c33fc10101",
	"stencil/ref@heal":                  "5076e89ba058a5b2",
	"stencil/ref@torn":                  "9f9472d1a74af3b5",
	"stencil/ref@zerolat":               "f6e334f664069e88",
	"stencil/statement@clean":           "994d813d72d486f2",
	"stencil/statement@coverage":        "0f88aff83ed38da5",
	"stencil/statement@drop":            "aed8e407ad97a0b6",
	"stencil/statement@faulty":          "5ec49174b0f609cf",
	"stencil/statement@heal":            "f860b72628615364",
	"stencil/statement@torn":            "66f009b909fe506e",
	"stencil/statement@zerolat":         "fca6b59c2a455f9f",
}
