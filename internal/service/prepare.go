package service

import (
	"bytes"
	"context"
	"encoding/json"
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

// Prepared is a keyed request: a /run, /verify or /compile body decoded,
// built, validated and keyed once. Its Key is the single source of request
// identity, shared by the handler (cache addressing) and the cluster router
// (ownership), so the two can never disagree. A router that serves a
// request itself hands the Prepared to the handler with WithPrepared.
type Prepared struct {
	Key   cache.Key
	route string
	wl    *codegen.Workload // /run and /verify
	cfg   sim.Config
	run   RunRequest
	ver   VerifyRequest
	comp  CompileRequest
	// filename is the compile request's filename with its default applied.
	filename string
}

// Prepare strictly decodes body as a request for route ("/run", "/verify"
// or "/compile"), builds and validates it, and computes its content
// address. Every error is an input error, worded as the handler answers it
// with a 400.
func Prepare(route string, body io.Reader) (*Prepared, error) {
	p := &Prepared{route: route}
	var dst any
	switch route {
	case "/run":
		dst = &p.run
	case "/verify":
		dst = &p.ver
	case "/compile":
		dst = &p.comp
	default:
		return nil, fmt.Errorf("service: %s is not a keyed route", route)
	}
	if err := DecodeStrict(body, dst); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	var err error
	switch route {
	case "/run":
		err = p.prepareRun()
	case "/verify":
		err = p.prepareVerify()
	default:
		err = p.prepareCompile()
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Prepared) prepareRun() error {
	wl, key, err := runKey(p.run)
	if err != nil {
		return err
	}
	p.wl, p.Key, p.cfg = wl, key, p.run.Config.SimConfig()
	return p.cfg.Check()
}

// maxVerifyIters bounds a /verify request's maxIters, four times the
// default window. The static verifier's clocks grow with the square of the
// window: at the bound one call allocates 37 MB for fig21 under process
// X=8 and 166 MB for the costliest built-in pair (fig21 under statement),
// so without a bound one request could exhaust the heap.
const maxVerifyIters = 2048

func (p *Prepared) prepareVerify() error {
	if !p.ver.Scheme.Verifiable() {
		return fmt.Errorf("scheme %q is not statically verifiable (outer-loop pipelining is outside the iteration-indexed happens-before model)", p.ver.Scheme.Name)
	}
	if p.ver.MaxIters > maxVerifyIters {
		return fmt.Errorf("verify: maxIters may not exceed %d, got %d", maxVerifyIters, p.ver.MaxIters)
	}
	wl, key, err := verifyKey(p.ver)
	if err != nil {
		return err
	}
	p.wl, p.Key, p.cfg = wl, key, p.ver.Config.SimConfig()
	return p.cfg.Check()
}

func (p *Prepared) prepareCompile() error {
	if p.comp.Source == "" {
		return fmt.Errorf("compile: source required")
	}
	p.cfg = p.comp.Config.SimConfig()
	if err := p.cfg.Check(); err != nil {
		return err
	}
	var err error
	p.filename, p.Key, err = compileKey(p.comp)
	return err
}

// ctxKeyPrepared carries a router-prepared request to the handler.
type ctxKeyPrepared struct{}

// WithPrepared returns ctx carrying p: the handler serving a request with
// this context uses p instead of decoding, building and keying the body
// again.
func WithPrepared(ctx context.Context, p *Prepared) context.Context {
	return context.WithValue(ctx, ctxKeyPrepared{}, p)
}

// prepared returns the request the router handed over for route, or
// prepares r's body itself (a forwarded or single-node request), answering
// the 400 when it cannot.
func (s *Server) prepared(w http.ResponseWriter, r *http.Request, route string) (*Prepared, bool) {
	if p, ok := r.Context().Value(ctxKeyPrepared{}).(*Prepared); ok && p.route == route {
		return p, true
	}
	p, err := Prepare(route, http.MaxBytesReader(w, r.Body, MaxBody))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return p, true
}

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

// ---- hit bodies ----

// hitBody is a cache entry's 200 answer to a hit: the entry's response
// decorated with cached: true and its key, rendered exactly as writeJSON
// renders it. The simulator is deterministic, so an entry is the exact
// answer and so are its bytes: they are rendered on the entry's first hit
// and never change after, and every later hit or deduplicated wait writes
// them as they are.
type hitBody struct {
	once sync.Once
	b    []byte
}

// bytes returns the rendered body, rendering decorated() on first use.
func (h *hitBody) bytes(decorated func() any) []byte {
	h.once.Do(func() {
		var buf bytes.Buffer
		if err := encodeIndented(&buf, decorated()); err == nil {
			h.b = buf.Bytes()
		}
	})
	return h.b
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
