// Command dsvet verifies generated synchronization programs. For each
// selected workload x scheme pair it extracts the abstract sync program
// (without running the machine), builds the happens-before relation the
// waits and signals induce over the iteration space, and checks it against
// the nest's dependence set: uncovered arcs are reported as races with a
// concrete iteration-pair witness, wait-for cycles as deadlocks, and
// transitively implied waits as advisory redundancy notes. With -dynamic it
// additionally executes the pair on the simulated machine and replays the
// synchronization trace through a vector-clock race checker.
//
//	dsvet                              # all built-in workloads x all schemes
//	dsvet -workload fig21 -scheme ref  # one pair
//	dsvet -file loop.do -scheme all    # a .do file under every scheme
//	dsvet -source loops.go             # Go loop nests via the static frontend
//	dsvet -dynamic -json               # include trace replay, emit JSON
//
// Exit status: 0 all pairs verified clean (advisory notes allowed), 1 hard
// findings or dynamic races, 2 usage or extraction errors.
//
// The pipelined-outer scheme is out of scope: its processes are outer-loop
// slices rather than coalesced iterations, which the iteration-indexed
// happens-before model does not cover.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/fault"
	"github.com/csrd-repro/datasync/internal/frontend"
	"github.com/csrd-repro/datasync/internal/lang"
	"github.com/csrd-repro/datasync/internal/service"
	"github.com/csrd-repro/datasync/internal/sim"
	"github.com/csrd-repro/datasync/internal/verify"
)

type pairResult struct {
	Workload string            `json:"workload"`
	Scheme   string            `json:"scheme"`
	Static   *verify.Report    `json:"static"`
	Dynamic  *verify.DynReport `json:"dynamic,omitempty"`
	RunError string            `json:"run_error,omitempty"` // -dynamic execution failure
	// Recovered marks a -dynamic execution that completed via ownership
	// reclamation; its trace was replayed like any other.
	Recovered bool `json:"recovered,omitempty"`
}

func main() {
	workload := flag.String("workload", "all", "built-in workload: fig21, nested, branchy, recurrence, stencil, all")
	file := flag.String("file", "", "verify a .do file instead of a built-in workload")
	source := flag.String("source", "", "verify the loop nests of a Go source file (lowered by the static frontend)")
	schemeName := flag.String("scheme", "all", "process, process-basic, statement, ref, instance, all")
	n := flag.Int64("n", 40, "iterations (outer extent for nested, grid size for stencil)")
	m := flag.Int64("m", 8, "inner extent (nested workload)")
	d := flag.Int64("d", 3, "dependence distance (recurrence workload)")
	cost := flag.Int64("cost", 4, "statement cost in cycles")
	x := flag.Int("x", 4, "process counters (process schemes)")
	k := flag.Int("k", 0, "statement counters (statement scheme; 0 = one per source)")
	maxIter := flag.Int64("maxiter", 0, "iteration window cap for static analysis (0 = default 512)")
	dynamic := flag.Bool("dynamic", false, "also execute on the simulated machine and replay the sync trace")
	p := flag.Int("p", 8, "processors for -dynamic execution")
	faultSpec := flag.String("fault", "", "fault plan for -dynamic execution, e.g. 'halt=proc1:50'")
	recoverCycles := flag.Int64("recover", 0, "with -dynamic: reclaim halted processors after this many cycles (0 = off)")
	jsonOut := flag.Bool("json", false, "emit one JSON array of pair results instead of text")
	flag.Parse()

	ws, err := selectWorkloads(*workload, *file, *source, *n, *m, *d, *cost)
	if err != nil {
		usage(err)
	}
	schemes, err := selectSchemes(*schemeName, *x, *k)
	if err != nil {
		usage(err)
	}

	cspec := service.ConfigSpec{P: *p, Recover: &sim.Recover{AfterCycles: *recoverCycles}}
	if *faultSpec != "" {
		plan, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			usage(err)
		}
		cspec.Fault = &plan
	}
	cfg := cspec.SimConfig()
	if err := cfg.Check(); err != nil {
		usage(err)
	}
	var results []pairResult
	hard := false
	for _, w := range ws {
		for _, s := range schemes {
			sp, err := codegen.ExtractSyncProgram(w, freshScheme(s))
			if err != nil {
				usage(fmt.Errorf("%s/%s: %v", w.Name, s.Name, err))
			}
			pr := pairResult{Workload: w.Name, Scheme: sp.Scheme,
				Static: verify.Static(sp, verify.Options{MaxIters: *maxIter})}
			if !pr.Static.OK() {
				hard = true
			}
			if *dynamic {
				// A broken scheme may fail serial equivalence or deadlock;
				// the trace recorded up to that point is still replayed. A
				// recovered run's trace (reclaimed ownership, resumed
				// iteration) goes through the same vector-clock replay: the
				// resumption shares its iteration with the pre-halt prefix,
				// so it is happens-before ordered like any other execution.
				res, events, rerr := codegen.RunSyncTraced(w, freshScheme(s), cfg)
				if rerr != nil {
					pr.RunError = rerr.Error()
					hard = true
				}
				if rec := res.Stats.Recovery; rec != nil && rec.Recovered {
					pr.Recovered = true
				}
				pr.Dynamic = verify.Dynamic(events)
				if !pr.Dynamic.OK() {
					hard = true
				}
			}
			results = append(results, pr)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			usage(err)
		}
	} else {
		for i, pr := range results {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(pr.Static)
			if pr.RunError != "" {
				fmt.Printf("dynamic run FAILED: %s\n", pr.RunError)
			}
			if pr.Recovered {
				fmt.Printf("dynamic run recovered from a halted processor; trace replayed\n")
			}
			if pr.Dynamic != nil {
				fmt.Print(pr.Dynamic)
			}
		}
		fmt.Println()
		if hard {
			fmt.Printf("dsvet: FAIL (%d pair(s) checked)\n", len(results))
		} else {
			fmt.Printf("dsvet: PASS (%d pair(s) checked)\n", len(results))
		}
	}
	if hard {
		os.Exit(1)
	}
}

func selectWorkloads(name, file, source string, n, m, d, cost int64) ([]*codegen.Workload, error) {
	if source != "" {
		// Lowering rejections are not verification findings: they go to
		// stderr as positioned diagnostics, and the accepted loops are
		// verified like any other workload. A file yielding no loops is a
		// usage error (exit 2), matching the extraction-error convention.
		res, err := frontend.LowerFile(source)
		if err != nil {
			return nil, err
		}
		for _, d := range res.Rejected {
			fmt.Fprintln(os.Stderr, d.String())
		}
		if len(res.Loops) == 0 {
			return nil, fmt.Errorf("%s: no lowerable loop nests (%d candidate(s) rejected)", source, len(res.Rejected))
		}
		ws := make([]*codegen.Workload, len(res.Loops))
		for i, lp := range res.Loops {
			ws[i] = lp.Workload
		}
		return ws, nil
	}
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		w, err := lang.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return []*codegen.Workload{w}, nil
	}
	specs := allWorkloads
	if name != "all" {
		specs = []service.WorkloadSpec{{Name: name, N: n, M: m, D: d, Cost: cost}}
	}
	var ws []*codegen.Workload
	for _, spec := range specs {
		w, err := spec.Build()
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// allWorkloads are the built-in workloads -workload all verifies, at fixed
// sizes independent of the size flags.
var allWorkloads = []service.WorkloadSpec{
	{Name: "fig21", N: 40, Cost: 4},
	{Name: "nested", N: 10, M: 8, Cost: 4},
	{Name: "branchy", N: 40, Cost: 4},
	{Name: "recurrence", N: 60, D: 3, Cost: 4},
	{Name: "stencil", N: 11, Cost: 4},
}

// selectSchemes resolves -scheme into the verifiable schemes it names.
func selectSchemes(name string, x, k int) ([]service.SchemeSpec, error) {
	var specs []service.SchemeSpec
	for _, n := range service.SchemeNames() {
		spec := service.SchemeSpec{Name: n, X: x, K: k}
		if spec.Verifiable() && (name == "all" || name == n) {
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("unknown scheme %q (pipeline is not statically verifiable; see package doc)", name)
	}
	return specs, nil
}

// freshScheme returns a fresh scheme per use: the instance-based scheme keeps
// per-run state, and the extraction and -dynamic runs must not share it.
// selectSchemes only returns specs that build.
func freshScheme(s service.SchemeSpec) codegen.Scheme {
	sch, err := s.Build()
	if err != nil {
		usage(err)
	}
	return sch
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "dsvet:", err)
	os.Exit(2)
}
