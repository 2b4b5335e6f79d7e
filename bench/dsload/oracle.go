package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/service"
)

// checker judges every answer. Cheap checks run on the sender right after
// the answer is timed: status, the canonical key against the client-side
// one, and byte equality of a repeated key with its first fill. Sampled
// answers are kept and re-derived after the run from the public engines:
// codegen.Run for /run misses, a fresh single-node EvalSweep for /sweep,
// and CompileSource for /compile.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	refs [][]byte // first fill of each repeatable key, "cached" normalized
	deep []answer
	errs []string

	// doctor, when set, rewrites each answer before it is judged (tests
	// use it to show a wrong answer is caught).
	doctor func(o *op, body []byte) []byte
}

// answer is one kept response.
type answer struct {
	o    *op
	body []byte
}

const maxReported = 10

func newChecker(refs int) *checker {
	return &checker{refs: make([][]byte, refs)}
}

func (c *checker) fail(o *op, format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < maxReported {
		c.errs = append(c.errs, fmt.Sprintf("op %d %s: %s", o.id, o.kind.path(), fmt.Sprintf(format, args...)))
	}
}

// check judges one answer: whether it was served from cache, and whether
// it is correct.
func (c *checker) check(o *op, status int, body []byte, err error) (cached, ok bool) {
	c.attempted.Add(1)
	if err != nil {
		c.fail(o, "transport: %v", err)
		return false, false
	}
	if c.doctor != nil {
		body = c.doctor(o, body)
	}
	if status != http.StatusOK {
		c.fail(o, "status %d: %s", status, oneLine(body))
		return false, false
	}
	var r struct {
		Key       string `json:"key"`
		Cached    bool   `json:"cached"`
		OK        bool   `json:"ok"`
		Evaluated int    `json:"evaluated"`
		Failed    int    `json:"failed"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		c.fail(o, "decode answer: %v", err)
		return false, false
	}
	switch {
	case o.kind == kindSweep && (r.Evaluated != o.points || r.Failed != 0):
		c.fail(o, "sweep evaluated %d of %d points, %d failed", r.Evaluated, o.points, r.Failed)
		return r.Cached, false
	case o.kind != kindSweep && r.Key != o.key:
		c.fail(o, "key %s, client computed %s", r.Key, o.key)
		return r.Cached, false
	case o.kind == kindVerify && !r.OK:
		c.fail(o, "verify not ok")
		return r.Cached, false
	}
	if o.ref >= 0 && !c.sameAsFirst(o.ref, body) {
		c.fail(o, "answer differs from the first fill of its key")
		return r.Cached, false
	}
	if o.deep && !r.Cached {
		c.mu.Lock()
		c.deep = append(c.deep, answer{o, bytes.Clone(body)})
		c.mu.Unlock()
	}
	return r.Cached, true
}

// sameAsFirst records the first answer of a repeatable key and compares
// every later one with it, ignoring the cache-provenance flag.
func (c *checker) sameAsFirst(ref int, body []byte) bool {
	norm := bytes.Replace(body, []byte(`"cached": true`), []byte(`"cached": false`), 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs[ref] == nil {
		c.refs[ref] = norm
		return true
	}
	return bytes.Equal(c.refs[ref], norm)
}

// runDeep re-derives every kept answer; each mismatch is a failed op.
func (c *checker) runDeep() {
	var oracle *service.Server
	for _, a := range c.deep {
		var err error
		switch a.o.kind {
		case kindSweep:
			if oracle == nil {
				oracle = service.NewServer(service.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
				defer oracle.Drain(context.Background())
			}
			err = checkSweep(oracle, a)
		case kindCompile:
			err = checkCompile(a)
		default:
			err = checkRun(a)
		}
		if err != nil {
			c.fail(a.o, "oracle: %v", err)
		}
	}
}

func strictDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// checkRun compares a /run miss with a direct codegen.Run.
func checkRun(a answer) error {
	var req service.RunRequest
	if err := strictDecode(a.o.body, &req); err != nil {
		return err
	}
	var got service.RunResponse
	if err := json.Unmarshal(a.body, &got); err != nil {
		return err
	}
	wl, err := req.Workload.Build()
	if err != nil {
		return err
	}
	sch, err := req.Scheme.Build()
	if err != nil {
		return err
	}
	want, err := codegen.Run(wl, sch, req.Config.SimConfig())
	if err != nil {
		return err
	}
	if got.Cycles != want.Stats.Cycles || got.SerialCycles != want.SerialCycles || got.SyncOps != want.Stats.SyncOps ||
		got.BusTx != want.Stats.BusBroadcasts || got.Polls != want.Stats.Polls {
		return fmt.Errorf("served cycles=%d serial=%d syncOps=%d bus=%d polls=%d, codegen.Run gives %d %d %d %d %d",
			got.Cycles, got.SerialCycles, got.SyncOps, got.BusTx, got.Polls,
			want.Stats.Cycles, want.SerialCycles, want.Stats.SyncOps, want.Stats.BusBroadcasts, want.Stats.Polls)
	}
	return nil
}

// checkSweep compares a cluster sweep with a single-node EvalSweep: every
// point and the Pareto front, ignoring cache provenance.
func checkSweep(oracle *service.Server, a answer) error {
	var req service.SweepRequest
	if err := strictDecode(a.o.body, &req); err != nil {
		return err
	}
	var got service.SweepResponse
	if err := json.Unmarshal(a.body, &got); err != nil {
		return err
	}
	want, err := oracle.EvalSweep(context.Background(), req)
	if err != nil {
		return err
	}
	if g, w := sweepBytes(&got), sweepBytes(want); !bytes.Equal(g, w) {
		return fmt.Errorf("sweep differs from the single-node oracle:\n served %s\n oracle %s", g, w)
	}
	return nil
}

func sweepBytes(r *service.SweepResponse) []byte {
	c := *r
	c.CacheHits = 0
	c.Points = uncached(r.Points)
	c.Pareto = uncached(r.Pareto)
	return mustJSON(c)
}

func uncached(pts []service.SweepPoint) []service.SweepPoint {
	out := make([]service.SweepPoint, len(pts))
	for i, p := range pts {
		p.Cached = false
		out[i] = p
	}
	return out
}

// checkCompile compares a /compile answer with service.CompileSource.
func checkCompile(a answer) error {
	var req service.CompileRequest
	if err := strictDecode(a.o.body, &req); err != nil {
		return err
	}
	var got service.CompileResponse
	if err := json.Unmarshal(a.body, &got); err != nil {
		return err
	}
	filename := req.Filename
	if filename == "" {
		filename = "input.go"
	}
	want, err := service.CompileSource(filename, []byte(req.Source), req.Schemes, req.Config)
	if err != nil {
		return err
	}
	if g, w := mustJSON(got.CompileOutcome), mustJSON(want); !bytes.Equal(g, w) {
		return fmt.Errorf("compile differs from CompileSource:\n served %s\n oracle %s", g, w)
	}
	return nil
}

// oneLine folds an (indented) error body onto one short line.
func oneLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
