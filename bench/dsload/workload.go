package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// workload is one traffic mix. An untraced run sends it one request at a
// time and nproc at a time (closed loops); a traced run of a workload with
// a rate sends it as Poisson arrivals at that rate (open loop), and one
// without (rate 0) in a closed loop.
type workload struct {
	name  string
	nodes int
	rate  float64 // offered open-loop load of a traced run in requests/s; 0 = closed loop
	// ceiling is the most requests/s a closed-loop phase is generated for:
	// inputs are made before timing starts, so a phase that outruns its
	// list ends early (capacity is still completions over elapsed time).
	ceiling float64
	why     string
}

var workloads = []workload{
	{name: "run-hot", nodes: 1, rate: 2000, ceiling: 0,
		why: "1 node, /run cache hits (Zipf over 256 warm keys): the fixed per-request cost of decode, build, canon hash, cache hit and encode"},
	{name: "run-cold", nodes: 1, rate: 500, ceiling: 2000,
		why: "1 node, /run on never-seen keys: pool, codegen, simulator and serial oracle, with real evictions in the 1024-entry cache"},
	{name: "sweep-3node", nodes: 3, rate: 0, ceiling: 200,
		why: "3 nodes, distinct 36-point /sweep grids with the entry node rotated: cluster steal/dispatch, peer hops and patient pool fan-out"},
	{name: "mixed-3node", nodes: 3, rate: 300, ceiling: 4000,
		why: "3 nodes, hits, .do source, misses, /compile and /verify: fills replicate while hits are forwarded, so one route taxing another shows"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phases splits one run's measured seconds. An untraced run draws all of
// them from the closed list; a traced run of an open-loop workload spends
// them in the open loop, half untraced (the reference for the tracing
// overhead) and half traced.
type phases struct {
	warm, open, closed time.Duration
}

func phasesFor(w workload, seconds float64, traced bool) phases {
	s := time.Duration(seconds * float64(time.Second))
	ph := phases{warm: s / 10}
	if traced && w.rate > 0 {
		ph.open = s
	} else {
		ph.closed = s
	}
	return ph
}

type opKind uint8

const (
	kindHit     opKind = iota // /run on a pre-warmed key
	kindMiss                  // /run on a key never sent before
	kindSource                // /run of inline .do source, parsed on every request
	kindVerify                // static /verify
	kindCompile               // /compile of an accepted Go corpus file
	kindSweep                 // /sweep over a 36-point grid
)

func (k opKind) path() string {
	switch k {
	case kindVerify:
		return "/verify"
	case kindCompile:
		return "/compile"
	case kindSweep:
		return "/sweep"
	}
	return "/run"
}

// op is one pre-generated request and what its answer must satisfy.
type op struct {
	id     int64
	kind   opKind
	node   int           // entry node index
	at     time.Duration // due time from the start of the open loop
	body   []byte
	key    string // expected canonical key (/run, /verify, /compile)
	ref    int    // reference slot of a key that repeats, or -1
	points int    // evaluation points answered (grid size for /sweep)
	deep   bool   // sampled for the post-run oracle
}

// plan is every input of one run, generated from the seed before timing.
type plan struct {
	prewarm []op // sent one at a time during set-up
	warm    []op // warm-up of an open loop, due times over the warm-up
	open    []op // open loop, due times over the open phase
	closed  []op // closed loops, warm-up first: an untraced run, or a traced closed-loop one
	cyclic  bool // the closed list may be repeated (every op is a hit)
	refs    int
}

// builtin is one built-in workload and the iteration range drawn for it;
// ranges are sized so that one simulation takes about a millisecond.
type builtin struct {
	name     string
	nLo, nHi int64
	depth2   bool // the pipeline scheme needs a depth-2 nest
}

var builtins = []builtin{
	{"fig21", 40, 120, false},
	{"nested", 12, 40, true},
	{"branchy", 40, 120, false},
	{"recurrence", 40, 120, false},
	{"stencil", 12, 20, true},
}

// verifiable are the schemes in the static happens-before model.
var verifiable = []string{"process", "process-basic", "statement", "ref", "instance"}

func schemesFor(b builtin) []string {
	if b.depth2 {
		return append([]string{"pipeline"}, verifiable...)
	}
	return verifiable
}

var (
	choicesP = []int{2, 4, 8}
	choicesX = []int{2, 4, 8}
)

const (
	hotKeys      = 256
	missSample   = 50 // one /run miss in missSample gets the codegen.Run oracle
	sweepSample  = 20 // the first sweep, then one in sweepSample, get the EvalSweep oracle
	sweepGridLen = 36
)

// corpus holds the request sources mixed-3node reads from the repository.
type corpus struct {
	do      []string // internal/lang/testdata/*.do
	goFiles []goFile // testdata/go/*.go minus the reject_ cases
}

type goFile struct{ name, src string }

func loadCorpus(root string) (*corpus, error) {
	c := &corpus{}
	dos, err := filepath.Glob(filepath.Join(root, "internal", "lang", "testdata", "*.do"))
	if err != nil {
		return nil, err
	}
	sort.Strings(dos)
	for _, f := range dos {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		c.do = append(c.do, string(b))
	}
	gos, err := filepath.Glob(filepath.Join(root, "testdata", "go", "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(gos)
	for _, f := range gos {
		base := filepath.Base(f)
		if strings.HasPrefix(base, "reject_") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		c.goFiles = append(c.goFiles, goFile{strings.TrimSuffix(base, ".go"), string(b)})
	}
	if len(c.do) == 0 || len(c.goFiles) == 0 {
		return nil, fmt.Errorf("corpus: no .do or Go sources under %s", root)
	}
	return c, nil
}

// generator draws one plan. Every draw goes through rng in a fixed order,
// so the same seed yields the same bytes; seen makes every miss a key the
// run has not sent before.
type generator struct {
	rng    *rand.Rand
	w      workload
	corp   *corpus
	seen   map[cache.Key]bool
	refOf  map[cache.Key]int
	sweeps map[string]bool
	nextID int64

	hot  []op
	zipf *rand.Zipf

	misses, nSweeps, compiles int
}

// generate builds the plan of workload w for seed. scale multiplies the
// offered rate and the closed-loop ceilings (tests run at a low rate).
func generate(w workload, seed int64, ph phases, scale float64, corp *corpus) (*plan, error) {
	g := &generator{
		rng:    rand.New(rand.NewSource(seed)),
		w:      w,
		corp:   corp,
		seen:   make(map[cache.Key]bool),
		refOf:  make(map[cache.Key]int),
		sweeps: make(map[string]bool),
	}
	p := &plan{}
	var next func() (op, error)
	switch w.name {
	case "run-hot":
		if err := g.makeHot(); err != nil {
			return nil, err
		}
		p.prewarm, next, p.cyclic = g.hot, g.hit, true
	case "run-cold":
		next = g.miss
	case "sweep-3node":
		// Three sweeps from each entry node before timing, so that every
		// node has dispatched sub-grids to its peers; nine, so that set-up
		// time is not one sweep's luck.
		for i := 0; i < 3*w.nodes; i++ {
			o, err := g.sweep()
			if err != nil {
				return nil, err
			}
			p.prewarm = append(p.prewarm, o)
		}
		next = g.sweep
	case "mixed-3node":
		if corp == nil {
			return nil, fmt.Errorf("mixed-3node needs the request corpus")
		}
		if err := g.makeHot(); err != nil {
			return nil, err
		}
		p.prewarm, next = g.hot, g.mixed
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}

	var err error
	if ph.open > 0 {
		rate := w.rate * scale
		if p.warm, err = g.poisson(next, rate, ph.warm); err != nil {
			return nil, err
		}
		if p.open, err = g.poisson(next, rate, ph.open); err != nil {
			return nil, err
		}
	} else {
		// The closed loops warm up on the same list.
		d := ph.warm + ph.closed
		ceiling := w.ceiling * scale
		if p.cyclic {
			ceiling = 4096 / d.Seconds() // repeated as often as the phases need
		}
		if p.closed, err = g.list(next, ceiling, d); err != nil {
			return nil, err
		}
	}
	p.refs = len(g.refOf)
	return p, nil
}

// poisson draws arrivals at rate over d.
func (g *generator) poisson(next func() (op, error), rate float64, d time.Duration) ([]op, error) {
	var ops []op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return ops, nil
		}
		o, err := next()
		if err != nil {
			return nil, err
		}
		o.at = at
		ops = append(ops, o)
	}
}

// list draws ceiling x d closed-loop requests (at least one).
func (g *generator) list(next func() (op, error), ceiling float64, d time.Duration) ([]op, error) {
	n := int(math.Ceil(ceiling * d.Seconds()))
	if n < 1 {
		n = 1
	}
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		o, err := next()
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

func (g *generator) newOp(kind opKind, body []byte) op {
	g.nextID++
	return op{id: g.nextID, kind: kind, body: body, ref: -1, points: 1}
}

func (g *generator) pick(xs []int) int { return xs[g.rng.Intn(len(xs))] }

// runRequest draws one built-in /run request of workload b under scheme.
func (g *generator) runRequest(b builtin, scheme string) service.RunRequest {
	return service.RunRequest{
		Workload: service.WorkloadSpec{Name: b.name, N: b.nLo + g.rng.Int63n(b.nHi-b.nLo+1), Cost: 1 + g.rng.Int63n(8)},
		Scheme:   service.SchemeSpec{Name: scheme, X: g.pick(choicesX)},
		Config:   service.ConfigSpec{P: g.pick(choicesP)},
	}
}

// freshRun draws /run requests until one has a key the run has not used.
func (g *generator) freshRun(draw func() service.RunRequest) (service.RunRequest, cache.Key, error) {
	for try := 0; try < 10000; try++ {
		req := draw()
		k, err := service.RunKey(req)
		if err != nil {
			return req, k, err
		}
		if !g.seen[k] {
			g.seen[k] = true
			return req, k, nil
		}
	}
	return service.RunRequest{}, cache.Key{}, fmt.Errorf("%s: /run key space exhausted", g.w.name)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// makeHot draws the 256 warm keys, cycling through every built-in
// workload x scheme pair, and a seeded Zipf(1.1) over them.
func (g *generator) makeHot() error {
	for i := 0; i < hotKeys; i++ {
		b := builtins[i%len(builtins)]
		schemes := schemesFor(b)
		scheme := schemes[(i/len(builtins))%len(schemes)]
		req, k, err := g.freshRun(func() service.RunRequest { return g.runRequest(b, scheme) })
		if err != nil {
			return err
		}
		o := g.newOp(kindHit, mustJSON(req))
		o.key = k.String()
		o.ref = len(g.refOf)
		g.refOf[k] = o.ref
		o.node = i % g.w.nodes
		if i%missSample == 0 {
			o.deep = true
		}
		g.hot = append(g.hot, o)
	}
	// Popularity rank is a seeded permutation of the keys, so the hottest
	// key is not always the first drawn.
	g.rng.Shuffle(len(g.hot), func(i, j int) { g.hot[i], g.hot[j] = g.hot[j], g.hot[i] })
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, hotKeys-1)
	return nil
}

func (g *generator) hit() (op, error) {
	t := g.hot[g.zipf.Uint64()]
	o := g.newOp(kindHit, t.body)
	o.key, o.ref = t.key, t.ref
	o.node = g.rng.Intn(g.w.nodes)
	return o, nil
}

func (g *generator) miss() (op, error) {
	req, k, err := g.freshRun(func() service.RunRequest {
		b := builtins[g.rng.Intn(len(builtins))]
		schemes := schemesFor(b)
		return g.runRequest(b, schemes[g.rng.Intn(len(schemes))])
	})
	if err != nil {
		return op{}, err
	}
	o := g.newOp(kindMiss, mustJSON(req))
	o.key = k.String()
	o.node = g.rng.Intn(g.w.nodes)
	o.deep = g.misses%missSample == 0
	g.misses++
	return o, nil
}

// repeatable returns the reference slot of a key that may be sent again.
func (g *generator) repeatable(k cache.Key) int {
	if r, ok := g.refOf[k]; ok {
		return r
	}
	r := len(g.refOf)
	g.refOf[k] = r
	return r
}

func (g *generator) source() (op, error) {
	req := service.RunRequest{
		Workload: service.WorkloadSpec{Source: g.corp.do[g.rng.Intn(len(g.corp.do))]},
		Scheme:   service.SchemeSpec{Name: verifiable[g.rng.Intn(len(verifiable))], X: g.pick(choicesX)},
		Config:   service.ConfigSpec{P: g.pick(choicesP)},
	}
	k, err := service.RunKey(req)
	if err != nil {
		return op{}, err
	}
	o := g.newOp(kindSource, mustJSON(req))
	o.key, o.ref = k.String(), g.repeatable(k)
	o.node = g.rng.Intn(g.w.nodes)
	return o, nil
}

// verifyNs keep a static check to a few milliseconds (stencil's cost grows
// with the square of N).
var verifyNs = map[string][]int{"stencil": {8, 10, 12}, "nested": {10, 15, 20}}

func (g *generator) verify() (op, error) {
	b := builtins[g.rng.Intn(len(builtins))]
	ns, ok := verifyNs[b.name]
	if !ok {
		ns = []int{20, 30, 40}
	}
	req := service.VerifyRequest{
		Workload: service.WorkloadSpec{Name: b.name, N: int64(g.pick(ns))},
		Scheme:   service.SchemeSpec{Name: verifiable[g.rng.Intn(len(verifiable))], X: g.pick(choicesX)},
		Config:   service.ConfigSpec{P: g.pick(choicesP)},
	}
	k, err := service.VerifyKey(req)
	if err != nil {
		return op{}, err
	}
	o := g.newOp(kindVerify, mustJSON(req))
	o.key, o.ref = k.String(), g.repeatable(k)
	o.node = g.rng.Intn(g.w.nodes)
	return o, nil
}

func (g *generator) compile() (op, error) {
	f := g.corp.goFiles[g.rng.Intn(len(g.corp.goFiles))]
	req := service.CompileRequest{
		Filename: fmt.Sprintf("%s_%d.go", f.name, g.compiles),
		Source:   f.src,
		Schemes:  []service.SchemeSpec{{Name: verifiable[g.rng.Intn(len(verifiable))]}},
		Config:   service.ConfigSpec{P: g.pick(choicesP)},
	}
	g.compiles++
	k, err := service.CompileRequestKey(req)
	if err != nil {
		return op{}, err
	}
	o := g.newOp(kindCompile, mustJSON(req))
	o.key = k.String()
	o.node = g.rng.Intn(g.w.nodes)
	o.deep = true
	return o, nil
}

// mixed draws mixed-3node's traffic: 70% hits, 5% .do source, 20% misses,
// 3% /compile, 2% /verify.
func (g *generator) mixed() (op, error) {
	switch u := g.rng.Float64(); {
	case u < 0.70:
		return g.hit()
	case u < 0.75:
		return g.source()
	case u < 0.95:
		return g.miss()
	case u < 0.98:
		return g.compile()
	default:
		return g.verify()
	}
}

var (
	sweepWorkloads = []builtin{{"fig21", 60, 120, false}, {"branchy", 60, 120, false}, {"recurrence", 60, 120, false}, {"stencil", 12, 20, true}}
	sweepGrid      = service.SweepGrid{X: []int{2, 4, 8, 16}, P: []int{2, 4, 8}, BusLatency: []int64{1, 2, 4}}
)

// sweep draws a /sweep no earlier sweep of the run shares a point with;
// the scheme rotates so two sweeps in five are ref/instance, where the
// busLatency axis cannot change the result.
func (g *generator) sweep() (op, error) {
	scheme := verifiable[g.nSweeps%len(verifiable)]
	for try := 0; try < 10000; try++ {
		b := sweepWorkloads[g.rng.Intn(len(sweepWorkloads))]
		req := service.SweepRequest{
			Workload: service.WorkloadSpec{Name: b.name, N: b.nLo + g.rng.Int63n(b.nHi-b.nLo+1), Cost: 1 + g.rng.Int63n(8)},
			Scheme:   service.SchemeSpec{Name: scheme},
			Grid:     sweepGrid,
		}
		id := fmt.Sprintf("%s/%d/%d/%s", b.name, req.Workload.N, req.Workload.Cost, scheme)
		if g.sweeps[id] {
			continue
		}
		g.sweeps[id] = true
		o := g.newOp(kindSweep, mustJSON(req))
		o.points = sweepGridLen
		o.node = g.nSweeps % g.w.nodes
		o.deep = g.nSweeps%sweepSample == 0
		g.nSweeps++
		return o, nil
	}
	return op{}, fmt.Errorf("sweep-3node: sweep space exhausted")
}

// fingerprint hashes a plan's request stream: ids, kinds, entry nodes, due
// times and bodies, in order.
func (p *plan) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, list := range [][]op{p.prewarm, p.warm, p.open, p.closed} {
		for _, o := range list {
			binary.LittleEndian.PutUint64(buf[:], uint64(o.id))
			h.Write(buf[:])
			h.Write([]byte{byte(o.kind), byte(o.node)})
			binary.LittleEndian.PutUint64(buf[:], uint64(o.at))
			h.Write(buf[:])
			h.Write(o.body)
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
