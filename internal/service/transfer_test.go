package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
)

func transferTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := NewServer(Options{Workers: 2, Logger: quiet})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// importHit imports into s the hit body another server answered for k
// on route, as a cluster entry node keeps a relayed hit: compacted back to
// the owner's compact answer. It returns the buffer it imported from.
func importHit(t *testing.T, s *Server, k cache.Key, route string, hit []byte) []byte {
	t.Helper()
	var compact bytes.Buffer
	if err := json.Compact(&compact, hit); err != nil {
		t.Fatal(err)
	}
	if err := s.ImportCacheEntry(k, strings.TrimPrefix(route, "/"), compact.Bytes()); err != nil {
		t.Fatalf("import %s entry: %v", route, err)
	}
	return compact.Bytes()
}

// TestCacheExportImportByteIdentity: an owner's hit answer imported into
// another server re-serves byte-identical response bodies — the property
// that makes a kept forward a pure cache-provenance move. Covered for /run
// and /verify.
func TestCacheExportImportByteIdentity(t *testing.T) {
	_, ha := transferTestServer(t)
	b, hb := transferTestServer(t)

	runReq := RunRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   SchemeSpec{Name: "process", X: 4},
		Config:   ConfigSpec{P: 4},
	}
	verifyReq := VerifyRequest{
		Workload: runReq.Workload,
		Scheme:   runReq.Scheme,
		Config:   runReq.Config,
	}

	// Fill on A, then record the canonical cached bytes (Cached:true).
	if code, body := postJSON(t, ha.URL+"/run", runReq); code != http.StatusOK {
		t.Fatalf("fill /run: %d %s", code, body)
	}
	_, cachedRun := postJSON(t, ha.URL+"/run", runReq)
	if code, body := postJSON(t, ha.URL+"/verify", verifyReq); code != http.StatusOK {
		t.Fatalf("fill /verify: %d %s", code, body)
	}
	_, cachedVerify := postJSON(t, ha.URL+"/verify", verifyReq)

	runKey, verifyKey := caseKey(t, "/run", runReq), caseKey(t, "/verify", verifyReq)
	importHit(t, b, runKey, "/run", cachedRun)
	importHit(t, b, verifyKey, "/verify", cachedVerify)

	// B answers from the imported entries: cache hits, identical bytes.
	code, gotRun := postJSON(t, hb.URL+"/run", runReq)
	if code != http.StatusOK {
		t.Fatalf("/run on importer: %d %s", code, gotRun)
	}
	if !bytes.Equal(gotRun, cachedRun) {
		t.Errorf("imported /run bytes differ:\nowner:    %s\nimporter: %s", cachedRun, gotRun)
	}
	var rr RunResponse
	if err := json.Unmarshal(gotRun, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Cached {
		t.Error("importer recomputed an imported run entry")
	}

	code, gotVerify := postJSON(t, hb.URL+"/verify", verifyReq)
	if code != http.StatusOK {
		t.Fatalf("/verify on importer: %d %s", code, gotVerify)
	}
	if !bytes.Equal(gotVerify, cachedVerify) {
		t.Errorf("imported /verify bytes differ:\nowner:    %s\nimporter: %s", cachedVerify, gotVerify)
	}

	// CacheHas sees the imported entries without disturbing stats.
	for _, k := range []cache.Key{runKey, verifyKey} {
		if !b.CacheHas(k) {
			t.Errorf("CacheHas(%s) = false after import", k)
		}
	}
}

// TestReimportedEntryByteIdentity: an entry imported from an importer's
// hit answer, as a chain of kept forwards moves it, serves the owner's hit
// bytes on /run, /verify and /compile, and a sweep on the second importer
// reads the twice-imported run entry as the owner's sweep point.
func TestReimportedEntryByteIdentity(t *testing.T) {
	owner, ho := transferTestServer(t)
	b, hb := transferTestServer(t)
	c, hc := transferTestServer(t)
	for _, tc := range hitCases {
		k := caseKey(t, tc.route, tc.req)
		postJSON(t, ho.URL+tc.route, tc.req)
		code, want := postJSON(t, ho.URL+tc.route, tc.req)
		if code != http.StatusOK {
			t.Fatalf("%s hit on the owner: %d %s", tc.route, code, want)
		}
		importHit(t, b, k, tc.route, want)
		code, first := postJSON(t, hb.URL+tc.route, tc.req)
		if code != http.StatusOK || !bytes.Equal(first, want) {
			t.Fatalf("%s on the first importer: %d\n%s\nwant the owner's hit\n%s", tc.route, code, first, want)
		}
		importHit(t, c, k, tc.route, first)
		code, second := postJSON(t, hc.URL+tc.route, tc.req)
		if code != http.StatusOK || !bytes.Equal(second, want) {
			t.Errorf("%s on the second importer: %d\n%s\nwant the owner's hit\n%s", tc.route, code, second, want)
		}
	}

	// A one-point sweep over the /run case reads the twice-imported entry.
	run := hitCases[0].req.(RunRequest)
	sweep := SweepRequest{Workload: run.Workload, Scheme: run.Scheme, Config: run.Config}
	if _, keys, err := SweepPointKeys(sweep); err != nil || len(keys) != 1 || keys[0] != caseKey(t, "/run", run) {
		t.Fatalf("sweep point keys %v (%v), want the /run key alone", keys, err)
	}
	wantSweep, err := owner.EvalSweep(context.Background(), sweep) // a hit on the owner
	if err != nil {
		t.Fatal(err)
	}
	gotSweep, err := c.EvalSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) || !gotSweep.Points[0].Cached {
		t.Errorf("sweep on the second importer:\n%+v\nthe owner's:\n%+v", gotSweep, wantSweep)
	}
}

// TestImportCopiesBody: an imported entry keeps its own copy of its body,
// at exactly its length, so it pins none of the caller's buffer (a kept
// forward imports from the buffer the relayed answer was compacted into).
// Overwriting that buffer changes nothing the entry serves.
func TestImportCopiesBody(t *testing.T) {
	_, ha := transferTestServer(t)
	b, hb := transferTestServer(t)
	for _, c := range hitCases {
		k := caseKey(t, c.route, c.req)
		postJSON(t, ha.URL+c.route, c.req)
		code, want := postJSON(t, ha.URL+c.route, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s hit on the owner: %d %s", c.route, code, want)
		}
		buf := importHit(t, b, k, c.route, want)
		for i := range buf {
			buf[i] = 'x'
		}
		v, _ := b.cache.Peek(k)
		var raw []byte
		switch e := v.(type) {
		case *runResult:
			raw = e.raw
		case *verifyResult:
			raw = e.raw
		case *compileResult:
			raw = e.raw
		}
		if len(raw) == 0 || cap(raw) != len(raw) {
			t.Errorf("%s: stored body has capacity %d for %d bytes", c.route, cap(raw), len(raw))
		}
		code, got := postJSON(t, hb.URL+c.route, c.req)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s after the overwrite: %d\n%s\nwant the owner's hit\n%s", c.route, code, got, want)
		}
	}
}

// TestImportCacheEntryRejects: unknown kinds and bodies that are not the
// key's hit answer are errors, not panics or silent corruption.
func TestImportCacheEntryRejects(t *testing.T) {
	s, _ := transferTestServer(t)

	var k cache.Key
	cases := []struct {
		kind string
		body string
	}{
		{"alien", `{}`},
		{"run", `{not json`},
		{"verify", `[]`},
		// Bodies that are JSON but not the key's hit answer: undecorated, decorated
		// with another key, and decorated as a fill (cached: false).
		{"run", `{"workload":"w","scheme":"s"}`},
		{"run", `{"key":"` + strings.Repeat("ff", 32) + `","cached":true}`},
		{"run", `{"key":"` + k.String() + `","cached":false}`},
		// The key's hit answer under a kind the server does not know.
		{"sweep", `{"key":"` + k.String() + `","cached":true}`},
	}
	for i, c := range cases {
		if err := s.ImportCacheEntry(k, c.kind, []byte(c.body)); err == nil {
			t.Errorf("case %d (%s %s) imported without error", i, c.kind, c.body)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("rejected imports left %d cache entries", n)
	}
}

// TestUndecodableImportIsRecomputed: an imported entry whose body passes
// the import checks but does not decode into its answer counts as absent
// where the struct is read: a sweep point and a compile request recompute
// it, and never serve a zero value.
func TestUndecodableImportIsRecomputed(t *testing.T) {
	s, hs := transferTestServer(t)
	oracle, ho := transferTestServer(t)
	sweep := SweepRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   SchemeSpec{Name: "process", X: 4},
		Config:   ConfigSpec{P: 4},
	}
	comp := hitCases[2].req.(CompileRequest)
	_, keys, err := SweepPointKeys(sweep)
	if err != nil {
		t.Fatal(err)
	}
	for kind, k := range map[string]cache.Key{"run": keys[0], "compile": caseKey(t, "/compile", comp)} {
		body := []byte(`{"key":"` + k.String() + `","cached":true,"cycles":"many","loops":7}`)
		if err := s.ImportCacheEntry(k, kind, body); err != nil {
			t.Fatalf("import %s: %v", kind, err)
		}
	}

	got, err := s.EvalSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.EvalSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Points[0].Cached {
		t.Errorf("sweep over an undecodable entry:\n%+v\nwant a fresh evaluation:\n%+v", got, want)
	}

	code, body := postJSON(t, hs.URL+"/compile", comp)
	wantCode, wantBody := postJSON(t, ho.URL+"/compile", comp)
	if code != wantCode || !bytes.Equal(body, wantBody) {
		t.Errorf("/compile over an undecodable entry: %d %s\nwant the fresh fill: %d %s", code, body, wantCode, wantBody)
	}
}

// TestImportedEntryConcurrentReads: concurrent first reads of an imported
// run entry, sweeps that decode it and hits that render its hit body, all
// agree with the owner (run under -race: the decode and the render each
// happen once, on whichever goroutine comes first).
func TestImportedEntryConcurrentReads(t *testing.T) {
	a, ha := transferTestServer(t)
	b, hb := transferTestServer(t)
	sweep := SweepRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   SchemeSpec{Name: "process", X: 4},
		Config:   ConfigSpec{P: 4},
	}
	runReq := RunRequest{Workload: sweep.Workload, Scheme: sweep.Scheme, Config: sweep.Config}
	postJSON(t, ha.URL+"/run", runReq)
	_, wantHit := postJSON(t, ha.URL+"/run", runReq)
	wantSweep, err := a.EvalSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	importHit(t, b, caseKey(t, "/run", runReq), "/run", wantHit)
	body, err := json.Marshal(runReq)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if got, err := b.EvalSweep(context.Background(), sweep); err != nil || !reflect.DeepEqual(got, wantSweep) {
					t.Errorf("sweep on the importer: %+v (%v), want %+v", got, err, wantSweep)
				}
				return
			}
			resp, err := http.Post(hb.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || !bytes.Equal(got, wantHit) {
				t.Errorf("hit on the importer:\n%s (%v)\nwant\n%s", got, err, wantHit)
			}
		}()
	}
	wg.Wait()
}
