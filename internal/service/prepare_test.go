package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
)

// memoServer is a quiet server with the given cache size (0 for the
// default), drained when the test ends.
func memoServer(tb testing.TB, cacheSize int) *Server {
	tb.Helper()
	s := NewServer(Options{Workers: 2, CacheSize: cacheSize, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	tb.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

// prepareCase is one keyed request body.
type prepareCase struct {
	name  string
	route string
	body  []byte
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// doSources are the .do programs under internal/lang/testdata, by base name.
func doSources(tb testing.TB) map[string]string {
	tb.Helper()
	files, err := filepath.Glob("../lang/testdata/*.do")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no .do testdata: %v", err)
	}
	out := make(map[string]string)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".do")] = string(b)
	}
	return out
}

// memoCorpus is valid and invalid bodies for every keyed route: each
// built-in and each .do source on /run and /verify, the hit-body requests,
// one body sent to both /run and /verify (whose keys differ), the
// badRequests rows, and malformed JSON and route-specific refusals.
func memoCorpus(t *testing.T) []prepareCase {
	var cs []prepareCase
	add := func(name, route string, v any) {
		cs = append(cs, prepareCase{name, route, mustMarshal(t, v)})
	}
	for _, name := range WorkloadNames() {
		add(name+" run", "/run", RunRequest{Workload: WorkloadSpec{Name: name, N: 12, Cost: 3}, Scheme: SchemeSpec{Name: "process", X: 4}, Config: ConfigSpec{P: 4}})
		add(name+" verify", "/verify", VerifyRequest{Workload: WorkloadSpec{Name: name, N: 12}, Scheme: SchemeSpec{Name: "statement"}, Dynamic: true})
	}
	for name, src := range doSources(t) {
		add(name+".do run", "/run", RunRequest{Workload: WorkloadSpec{Source: src}, Scheme: SchemeSpec{Name: "ref"}})
		add(name+".do verify", "/verify", VerifyRequest{Workload: WorkloadSpec{Source: src}, Scheme: SchemeSpec{Name: "process"}, MaxIters: 64})
	}
	for _, hc := range hitCases {
		add("hit case "+hc.route, hc.route, hc.req)
	}
	add("compile defaults", "/compile", CompileRequest{Source: hitCases[2].req.(CompileRequest).Source})
	both := RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 20}, Scheme: SchemeSpec{Name: "ref"}}
	add("one body on /run", "/run", both)
	add("the same body on /verify", "/verify", both)
	// Invalid bodies.
	for _, bad := range badRequests {
		route := "/run"
		if _, ok := bad.body.(VerifyRequest); ok {
			route = "/verify"
		}
		add(bad.name, route, bad.body)
	}
	add("verify pipeline", "/verify", VerifyRequest{Workload: WorkloadSpec{Name: "nested"}, Scheme: SchemeSpec{Name: "pipeline"}})
	add("stencil over the size limit on /verify", "/verify", VerifyRequest{Workload: WorkloadSpec{Name: "stencil", N: 1 << 32}, Scheme: SchemeSpec{Name: "process"}})
	add("compile without source", "/compile", CompileRequest{})
	add("compile bad config", "/compile", CompileRequest{Source: "package p\n", Config: ConfigSpec{P: -1}})
	add("compile unknown scheme", "/compile", CompileRequest{Source: "package p\n", Schemes: []SchemeSpec{{Name: "quantum"}}})
	for _, route := range []string{"/run", "/verify", "/compile"} {
		cs = append(cs,
			prepareCase{"malformed JSON " + route, route, []byte(`{"workload": `)},
			prepareCase{"empty body " + route, route, nil})
	}
	return cs
}

// TestPrepareMemoExact: preparing a body twice on one server and once on a
// fresh one gives the same key, or the same error text with nothing
// memoized; a repeat of a valid body comes from the memo.
func TestPrepareMemoExact(t *testing.T) {
	s := memoServer(t, 0)
	valid := 0
	for _, c := range memoCorpus(t) {
		first, err1 := s.Prepare(c.route, c.body)
		again, err2 := s.Prepare(c.route, c.body)
		fresh, err3 := memoServer(t, 0).Prepare(c.route, c.body)
		if err1 != nil {
			if err2 == nil || err3 == nil || err2.Error() != err1.Error() || err3.Error() != err1.Error() {
				t.Errorf("%s: errors differ: %v / %v / %v", c.name, err1, err2, err3)
			}
			if _, ok := s.memo.get(bodyDigest(c.route, c.body)); ok {
				t.Errorf("%s: a failed body was memoized", c.name)
			}
			continue
		}
		valid++
		if err2 != nil || err3 != nil {
			t.Errorf("%s: prepared once, then failed: %v / %v", c.name, err2, err3)
			continue
		}
		if again.Key != first.Key || fresh.Key != first.Key {
			t.Errorf("%s: keys differ: %s / %s / %s", c.name, first.Key, again.Key, fresh.Key)
		}
		if first.req == nil || again.req != nil {
			t.Errorf("%s: first sight complete %v, repeat complete %v; want true, false", c.name, first.req != nil, again.req != nil)
		}
		// Completing the memoized Prepared reproduces the request the
		// first sight built.
		q, err := again.complete()
		if err != nil {
			t.Errorf("%s: completing the memo hit: %v", c.name, err)
			continue
		}
		if q.filename != first.req.filename || (q.wl == nil) != (first.req.wl == nil) || q.cfg != first.req.cfg {
			t.Errorf("%s: completed request differs from the first sight's", c.name)
		}
	}
	if valid < 20 {
		t.Fatalf("only %d valid bodies in the corpus", valid)
	}
}

// TestPrepareMemoMismatchIs500: a memo entry its body does not reproduce
// is never served: the request answers 500 and no entry is filled under
// the memoized key.
func TestPrepareMemoMismatchIs500(t *testing.T) {
	s := memoServer(t, 0)
	body := mustMarshal(t, RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 20}, Scheme: SchemeSpec{Name: "ref"}})
	wrong := cache.Key{1, 2, 3}
	s.memo.put(bodyDigest("/run", body), wrong)
	if code, out := serve(s.Handler(), "/run", bytes.NewReader(body)); code != http.StatusInternalServerError || !bytes.Contains(out, []byte("re-keyed")) {
		t.Fatalf("status %d %s, want 500 naming the re-keying", code, out)
	}
	if _, ok := s.cache.Peek(wrong); ok {
		t.Fatal("an entry was filled under the wrong key")
	}
	if _, err := (&Prepared{Key: wrong, route: "/run", body: body}).complete(); !errors.Is(err, errMemoKey) {
		t.Fatalf("complete: %v, want errMemoKey", err)
	}
}

// TestBodyMemoBound: the memo holds at most its size in keys, evicting the
// oldest digest first; putting a held digest again changes nothing.
func TestBodyMemoBound(t *testing.T) {
	m := newBodyMemo(3)
	d := func(i byte) cache.Key { return cache.Key{i} }
	for i := byte(1); i <= 5; i++ {
		m.put(d(i), d(100+i))
		m.put(d(i), d(200))
	}
	if len(m.keys) != 3 {
		t.Fatalf("%d keys held, want 3", len(m.keys))
	}
	for i := byte(1); i <= 5; i++ {
		k, ok := m.get(d(i))
		if want := i > 2; ok != want || (ok && k != d(100+i)) {
			t.Errorf("digest %d: held %v key %v, want held %v key %v", i, ok, k[0], want, 100+i)
		}
	}
}

// serve posts body to route on h and returns the status and body.
func serve(h http.Handler, route string, body io.Reader) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, body))
	return rec.Code, rec.Body.Bytes()
}

// TestMemoHitAfterEvictionMatchesFresh: with one cache entry, a body whose
// result a one-point sweep evicted is a memo hit that completes and
// computes again; its answer is byte-identical to a fresh server's, on
// every keyed route.
func TestMemoHitAfterEvictionMatchesFresh(t *testing.T) {
	s := memoServer(t, 1)
	h := s.Handler()
	evict := mustMarshal(t, SweepRequest{Workload: WorkloadSpec{Name: "fig21", N: 12}, Scheme: SchemeSpec{Name: "process"},
		Grid: SweepGrid{X: []int{2}, P: []int{2}}})
	for _, hc := range hitCases {
		body := mustMarshal(t, hc.req)
		if code, out := serve(h, hc.route, bytes.NewReader(body)); code != http.StatusOK {
			t.Fatalf("%s fill: %d %s", hc.route, code, out)
		}
		if code, out := serve(h, "/sweep", bytes.NewReader(evict)); code != http.StatusOK {
			t.Fatalf("evicting sweep: %d %s", code, out)
		}
		if _, ok := s.memo.get(bodyDigest(hc.route, body)); !ok {
			t.Fatalf("%s: body not memoized", hc.route)
		}
		k, err := s.Prepare(hc.route, body)
		if err != nil || k.req != nil || s.CacheHas(k.Key) {
			t.Fatalf("%s: want a memo hit on an evicted entry (err %v, complete %v, cached %v)", hc.route, err, k.req != nil, s.CacheHas(k.Key))
		}
		code, got := serve(h, hc.route, bytes.NewReader(body))
		wantCode, want := serve(memoServer(t, 1).Handler(), hc.route, bytes.NewReader(body))
		if code != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s: %d %s\nfresh server: %d %s", hc.route, code, got, wantCode, want)
		}
	}
}

// TestOversizeBodyNotMemoized: a body over MaxBody is decoded as far as it
// reads and never memoized. One cut short inside a value answers "request
// body too large"; one whose first value ends below the cap answers as
// that value does (here an unknown workload), as a streaming decoder
// would. internal/cluster's TestRouterOversizedBody holds the cluster
// path to the same words.
func TestOversizeBodyNotMemoized(t *testing.T) {
	s := memoServer(t, 0)
	h := s.Handler()
	cut := append([]byte(`{"workload": {"source": "`), bytes.Repeat([]byte("x"), MaxBody)...)
	whole := append([]byte(`{"workload": {"name": "nope"}, "scheme": {"name": "ref"}}`), bytes.Repeat([]byte(" "), MaxBody)...)
	for _, route := range []string{"/run", "/verify", "/compile"} {
		if code, out := serve(h, route, bytes.NewReader(cut)); code != http.StatusBadRequest || !bytes.Contains(out, []byte("decode request: http: request body too large")) {
			t.Errorf("%s, cut inside a value: %d %s, want 400 request body too large", route, code, out)
		}
		if code, out := serve(h, route, bytes.NewReader(whole)); code != http.StatusBadRequest || bytes.Contains(out, []byte("too large")) {
			t.Errorf("%s, complete first value: %d %s, want that value's own 400", route, code, out)
		}
	}
	if _, out := serve(h, "/run", bytes.NewReader(whole)); !bytes.Contains(out, []byte("unknown workload")) {
		t.Errorf("/run, complete first value: %s, want unknown workload", out)
	}
	if n := len(s.memo.keys); n != 0 {
		t.Errorf("%d unread bodies memoized", n)
	}
}

// BenchmarkPrepare times Server.Prepare of one /run body per built-in and
// one .do source. first alternates two spellings of the request (one
// leading space apart) on a one-entry memo, so every call decodes, builds
// and keys the body; repeat sends one body, which after the first call is
// a memo hit.
func BenchmarkPrepare(b *testing.B) {
	var cs []prepareCase
	for _, name := range WorkloadNames() {
		n := int64(40)
		if name == "nested" || name == "stencil" {
			n = 12
		}
		cs = append(cs, prepareCase{name, "/run", mustMarshal(b, RunRequest{Workload: WorkloadSpec{Name: name, N: n, Cost: 3},
			Scheme: SchemeSpec{Name: "process", X: 4}, Config: ConfigSpec{P: 4}})})
	}
	cs = append(cs, prepareCase{"do-recurrence", "/run", mustMarshal(b, RunRequest{Workload: WorkloadSpec{Source: doSources(b)["recurrence"]},
		Scheme: SchemeSpec{Name: "process", X: 4}, Config: ConfigSpec{P: 4}})})
	for _, c := range cs {
		spellings := [2][]byte{c.body, append([]byte(" "), c.body...)}
		b.Run(c.name+"/first", func(b *testing.B) {
			s := memoServer(b, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Prepare(c.route, spellings[i&1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/repeat", func(b *testing.B) {
			s := memoServer(b, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Prepare(c.route, c.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
