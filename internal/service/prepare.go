package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
)

// MaxBody caps a request body. The handlers and the cluster router read
// bodies through http.MaxBytesReader with this cap, so a body over it gets
// the same "request body too large" answer on every path.
const MaxBody = 1 << 20

// DecodeStrict decodes one JSON value from r; unknown fields are an error
// so a typo'd parameter fails loudly instead of silently taking a default.
// The handlers, the cluster router and the peer endpoints all decode with
// it, so they agree on what a well-formed request is.
func DecodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// Prepared is a keyed request: a /run, /verify or /compile body keyed
// once. Its Key is the single source of request identity, shared by the
// handler (cache addressing) and the cluster router (ownership), so the two
// can never disagree. A router that serves a request itself hands the
// Prepared to the handler with WithPrepared.
//
// A Prepared taken from the server's body memo holds only the key and the
// raw body. The decoded, built and validated request is needed only to
// compute an answer, so complete produces it inside the cache-miss path,
// and a hit never pays for it.
type Prepared struct {
	Key   cache.Key
	route string
	body  []byte
	req   *request // nil until complete
}

// request is a keyed body decoded, built and validated.
type request struct {
	key  cache.Key
	wl   *codegen.Workload // /run and /verify
	cfg  sim.Config
	run  RunRequest
	ver  VerifyRequest
	comp CompileRequest
	// filename is the compile request's filename with its default applied.
	filename string
}

// errMemoKey reports a memoized key that the body, prepared in full, does
// not reproduce. Preparation is deterministic, so it signals a bug; the
// request answers 500 rather than an entry under the wrong key.
var errMemoKey = errors.New("service: internal error: request body re-keyed differently from its memoized key")

// Prepare keys body, read in full, as a request for route ("/run",
// "/verify" or "/compile"). A body this server has prepared before is
// looked up by its digest in the body memo, a bounded table from
// sha256(route, body) to the canonical key; any other body is strictly
// decoded, built, validated and keyed, and enters the memo only if all of
// that succeeds. Every error is an input error, worded as the handler
// answers it with a 400.
func (s *Server) Prepare(route string, body []byte) (*Prepared, error) {
	if !keyedRoute(route) {
		return nil, fmt.Errorf("service: %s is not a keyed route", route)
	}
	d := bodyDigest(route, body)
	if key, ok := s.memo.get(d); ok {
		return &Prepared{Key: key, route: route, body: body}, nil
	}
	req, err := prepare(route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	s.memo.put(d, req.key)
	return &Prepared{Key: req.key, route: route, body: body, req: req}, nil
}

// bodyMemo is the server's bounded table from body digests to canonical
// keys. It evicts first in, first out, so a hit only reads; a hot body
// that ages out is prepared in full once more. Both the map and the ring
// of digests in insertion order hold no pointer, so the collector never
// scans them.
type bodyMemo struct {
	mu    sync.Mutex
	keys  map[cache.Key]cache.Key
	order []cache.Key // digests in insertion order, the oldest at next once full
	next  int
	size  int
}

func newBodyMemo(size int) *bodyMemo {
	return &bodyMemo{keys: make(map[cache.Key]cache.Key), size: size}
}

func (m *bodyMemo) get(d cache.Key) (cache.Key, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[d]
	return k, ok
}

// put records d's key, evicting the oldest digest once size are held.
func (m *bodyMemo) put(d, k cache.Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.keys[d]; ok {
		return
	}
	if len(m.order) < m.size {
		m.order = append(m.order, d)
	} else {
		delete(m.keys, m.order[m.next])
		m.order[m.next] = d
		m.next = (m.next + 1) % m.size
	}
	m.keys[d] = k
}

func keyedRoute(route string) bool {
	return route == "/run" || route == "/verify" || route == "/compile"
}

// bodyDigest is a body's address in the memo: the SHA-256 of the route, a
// zero byte and the body.
func bodyDigest(route string, body []byte) cache.Key {
	h := sha256.New()
	h.Write([]byte(route))
	h.Write([]byte{0})
	h.Write(body)
	var d cache.Key
	h.Sum(d[:0])
	return d
}

// complete returns p's decoded request. For a Prepared taken from the memo
// it prepares the body in full, and the key it computes must be p.Key.
func (p *Prepared) complete() (*request, error) {
	if p.req != nil {
		return p.req, nil
	}
	req, err := prepare(p.route, bytes.NewReader(p.body))
	if err != nil {
		return nil, err
	}
	if req.key != p.Key {
		return nil, fmt.Errorf("%w: %s, not %s", errMemoKey, req.key, p.Key)
	}
	p.req = req
	return req, nil
}

// prepare strictly decodes body as a request for a keyed route, builds and
// validates it, and computes its content address.
func prepare(route string, body io.Reader) (*request, error) {
	q := new(request)
	var dst any
	switch route {
	case "/run":
		dst = &q.run
	case "/verify":
		dst = &q.ver
	default:
		dst = &q.comp
	}
	if err := DecodeStrict(body, dst); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	var err error
	switch route {
	case "/run":
		err = q.prepareRun()
	case "/verify":
		err = q.prepareVerify()
	default:
		err = q.prepareCompile()
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

func (q *request) prepareRun() error {
	wl, key, err := runKey(q.run)
	if err != nil {
		return err
	}
	q.wl, q.key, q.cfg = wl, key, q.run.Config.SimConfig()
	return q.cfg.Check()
}

// maxVerifyIters bounds a /verify request's maxIters, four times the
// default window. The static verifier's clocks grow with the square of the
// window: at the bound one call allocates 37 MB for fig21 under process
// X=8 and 166 MB for the costliest built-in pair (fig21 under statement),
// so without a bound one request could exhaust the heap.
const maxVerifyIters = 2048

func (q *request) prepareVerify() error {
	if !q.ver.Scheme.Verifiable() {
		return fmt.Errorf("scheme %q is not statically verifiable (outer-loop pipelining is outside the iteration-indexed happens-before model)", q.ver.Scheme.Name)
	}
	if q.ver.MaxIters > maxVerifyIters {
		return fmt.Errorf("verify: maxIters may not exceed %d, got %d", maxVerifyIters, q.ver.MaxIters)
	}
	wl, key, err := verifyKey(q.ver)
	if err != nil {
		return err
	}
	q.wl, q.key, q.cfg = wl, key, q.ver.Config.SimConfig()
	return q.cfg.Check()
}

func (q *request) prepareCompile() error {
	if q.comp.Source == "" {
		return fmt.Errorf("compile: source required")
	}
	q.cfg = q.comp.Config.SimConfig()
	if err := q.cfg.Check(); err != nil {
		return err
	}
	var err error
	q.filename, q.key, err = compileKey(q.comp)
	return err
}

// ctxKeyPrepared carries a router-prepared request to the handler.
type ctxKeyPrepared struct{}

// WithPrepared returns ctx carrying p: the handler serving a request with
// this context uses p instead of reading and keying the body again.
func WithPrepared(ctx context.Context, p *Prepared) context.Context {
	return context.WithValue(ctx, ctxKeyPrepared{}, p)
}

// prepared returns the request the router handed over for route, or
// prepares r's body itself (a forwarded or single-node request), answering
// the 400 when it cannot. A body that does not read in full (one over
// MaxBody) is decoded as far as it reads and never memoized, so it fails
// in the decoder's words, as ReplayBody makes it fail behind the router.
func (s *Server) prepared(w http.ResponseWriter, r *http.Request, route string) (*Prepared, bool) {
	if p, ok := r.Context().Value(ctxKeyPrepared{}).(*Prepared); ok && p.route == route {
		return p, true
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
	var p *Prepared
	if err == nil {
		p, err = s.Prepare(route, body)
	} else {
		var req *request
		if req, err = prepare(route, ReplayBody(body, err)); err == nil {
			p = &Prepared{Key: req.key, route: route, req: req}
		}
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return p, true
}

// ReplayBody is a request body replaying what was read of one: the bytes,
// then the read error if there was one. A router that read a body and
// hands the request on to a handler replays it this way, so the handler
// answers in its own words, exactly as if it had read the body itself; a
// body over MaxBody gets "request body too large".
func ReplayBody(body []byte, err error) io.ReadCloser {
	r := io.Reader(bytes.NewReader(body))
	if err != nil {
		r = io.MultiReader(r, errReader{err})
	}
	return io.NopCloser(r)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// ---- canonical content addresses ----

// runKey builds a run request's workload and computes its content address.
func runKey(req RunRequest) (*codegen.Workload, cache.Key, error) {
	wl, err := req.Workload.Build()
	if err != nil {
		return nil, cache.Key{}, err
	}
	sch, err := req.Scheme.Build()
	if err != nil {
		return nil, cache.Key{}, err
	}
	return wl, cache.RequestKey(wl, sch.Name(), req.Config.SimConfig()), nil
}

// verifyKey builds a verify request's workload and computes its content
// address.
func verifyKey(req VerifyRequest) (*codegen.Workload, cache.Key, error) {
	wl, err := req.Workload.Build()
	if err != nil {
		return nil, cache.Key{}, err
	}
	sch, err := req.Scheme.Build()
	if err != nil {
		return nil, cache.Key{}, err
	}
	return wl, cache.VerifyKey(wl, sch.Name(), req.Config.SimConfig(), req.Dynamic, req.MaxIters), nil
}

// compileKey computes a compile request's content address (defaults
// applied, scheme selection canonicalized to built names) and returns the
// defaulted filename with it.
func compileKey(req CompileRequest) (string, cache.Key, error) {
	filename := req.Filename
	if filename == "" {
		filename = "input.go"
	}
	names, err := compileSchemeNames(req.Schemes)
	if err != nil {
		return "", cache.Key{}, err
	}
	return filename, cache.CompileKey(filename, []byte(req.Source), names, req.Config.SimConfig()), nil
}

// RunKey computes the canonical content address of a run request.
func RunKey(req RunRequest) (cache.Key, error) {
	_, k, err := runKey(req)
	return k, err
}

// VerifyKey computes the canonical content address of a verify request: the
// run address extended with the verification-mode discriminator.
func VerifyKey(req VerifyRequest) (cache.Key, error) {
	_, k, err := verifyKey(req)
	return k, err
}

// CompileRequestKey computes the canonical content address of a compile
// request.
func CompileRequestKey(req CompileRequest) (cache.Key, error) {
	_, k, err := compileKey(req)
	return k, err
}

// ---- cache entries ----

// answer is a keyed route's answer type, stored undecorated.
type answer[T any] interface {
	RunResponse | VerifyResponse | CompileResponse
	decorated(key cache.Key, hit bool) T // the answer as served under key
}

// entry is a result-cache value: the one answer its key names. A computed
// entry holds the answer (val). An imported entry holds the owner's compact
// hit answer as it arrived (raw) and decodes val from it only when a caller
// reads the struct. The simulator is deterministic, so an entry is the
// exact answer and so is its hit body: it is rendered on the entry's first
// hit and every later hit or deduplicated wait writes it as it is.
type entry[T answer[T]] struct {
	val    T
	raw    []byte
	decode sync.Once
	bad    bool // raw does not decode into val
	render sync.Once
	hit    []byte
}

// The cache values of /run, /verify and /compile.
type (
	runResult     = entry[RunResponse]
	verifyResult  = entry[VerifyResponse]
	compileResult = entry[CompileResponse]
)

// decoded reports whether the answer struct is at hand, decoding an
// imported entry's raw answer on first use. An entry whose raw answer does
// not decode counts as absent (fetch), and is never served as a zero value.
func (e *entry[T]) decoded() bool {
	e.decode.Do(func() { e.bad = e.raw != nil && json.Unmarshal(e.raw, &e.val) != nil })
	return !e.bad
}

// decorate returns the answer as served under key.
func (e *entry[T]) decorate(key cache.Key, hit bool) T {
	e.decoded()
	return e.val.decorated(key, hit)
}

// hitBytes returns the entry's hit body, rendered on first use as
// json.Indent of the compact hit answer (an imported entry's raw answer as
// it is, or json.Marshal of a computed answer decorated with cached: true
// and its key) plus a newline. That is what encodeIndented writes for the
// decorated answer (the encoder marshals compact, appends the newline and
// indents), so an imported entry serves the owner's bytes without decoding
// them.
func (e *entry[T]) hitBytes(key cache.Key) []byte {
	e.render.Do(func() {
		c, err := e.raw, error(nil)
		if c == nil {
			c, err = json.Marshal(e.val.decorated(key, true))
		}
		var buf bytes.Buffer
		if err == nil && json.Indent(&buf, c, "", "  ") == nil {
			e.hit = append(buf.Bytes(), '\n')
		}
	})
	return e.hit
}

// fetch answers key through the cache and singleflight, calling fill on a
// miss. An entry a peer stored under key with another kind, or (when the
// caller reads the answer struct, decoded) whose raw answer does not
// decode, counts as absent: fill computes it again and replaces it.
func fetch[T answer[T]](s *Server, key cache.Key, decoded bool, fill func() (any, error)) (*entry[T], bool, error) {
	v, hit, err := s.cache.Do(key, fill)
	e, ok := v.(*entry[T])
	if err == nil && ok && decoded {
		ok = e.decoded()
	}
	if err == nil && !ok {
		hit = false
		if v, err = fill(); err == nil {
			s.cache.Put(key, v)
			e = v.(*entry[T])
		}
	}
	if err != nil {
		return nil, false, err
	}
	return e, hit, nil
}

// encodeIndented is the one response encoding: two-space indented JSON
// with a trailing newline.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeHit writes an entry's stored hit body.
func (s *Server) writeHit(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
