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

// TestCacheExportImportByteIdentity: an entry exported from one server and
// imported into another re-serves byte-identical response bodies — the
// property that makes drain handoff and replication pure cache-provenance
// moves. Covered for /run and /verify.
func TestCacheExportImportByteIdentity(t *testing.T) {
	a, ha := transferTestServer(t)
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

	var entries []CacheEntry
	a.RangeCacheKeys(func(k cache.Key) {
		if e, ok := a.ExportCacheEntry(k); ok {
			entries = append(entries, e)
		}
	})
	if len(entries) != 2 {
		t.Fatalf("exported %d entries, want 2 (run + verify)", len(entries))
	}
	kinds := map[string]bool{}
	for _, e := range entries {
		if err := b.ImportCacheEntry(e); err != nil {
			t.Fatalf("import %s entry: %v", e.Kind, err)
		}
		kinds[e.Kind] = true
	}
	if !kinds["run"] || !kinds["verify"] {
		t.Fatalf("exported kinds %v, want run and verify", kinds)
	}

	// B answers from the imported entries: cache hits, identical bytes.
	code, gotRun := postJSON(t, hb.URL+"/run", runReq)
	if code != http.StatusOK {
		t.Fatalf("/run on importer: %d %s", code, gotRun)
	}
	if !bytes.Equal(gotRun, cachedRun) {
		t.Errorf("imported /run bytes differ:\nexporter: %s\nimporter: %s", cachedRun, gotRun)
	}
	var rr RunResponse
	if err := json.Unmarshal(gotRun, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Cached {
		t.Error("importer recomputed a handed-off run entry")
	}

	code, gotVerify := postJSON(t, hb.URL+"/verify", verifyReq)
	if code != http.StatusOK {
		t.Fatalf("/verify on importer: %d %s", code, gotVerify)
	}
	if !bytes.Equal(gotVerify, cachedVerify) {
		t.Errorf("imported /verify bytes differ:\nexporter: %s\nimporter: %s", cachedVerify, gotVerify)
	}

	// CacheHas sees the imported entries without disturbing stats.
	for _, e := range entries {
		k, err := cache.ParseKey(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !b.CacheHas(k) {
			t.Errorf("CacheHas(%s) = false after import", e.Key)
		}
	}
}

// TestImportCacheEntryRejects: malformed keys, bodies and unknown kinds
// are errors, not panics or silent corruption.
func TestImportCacheEntryRejects(t *testing.T) {
	s, _ := transferTestServer(t)

	cases := []CacheEntry{
		{Key: "zz", Kind: "run", Body: json.RawMessage(`{}`)},
		{Key: "abcd", Kind: "run", Body: json.RawMessage(`{}`)}, // wrong length
		{Key: validTestKey(), Kind: "alien", Body: json.RawMessage(`{}`)},
		{Key: validTestKey(), Kind: "run", Body: json.RawMessage(`{not json`)},
		{Key: validTestKey(), Kind: "verify", Body: json.RawMessage(`[]`)},
		// Bodies that are JSON but not the key's hit answer: undecorated, decorated
		// with another key, and decorated as a fill (cached: false).
		{Key: validTestKey(), Kind: "run", Body: json.RawMessage(`{"workload":"w","scheme":"s"}`)},
		{Key: validTestKey(), Kind: "run", Body: json.RawMessage(`{"key":"` + strings.Repeat("ff", 32) + `","cached":true}`)},
		{Key: validTestKey(), Kind: "run", Body: json.RawMessage(`{"key":"` + validTestKey() + `","cached":false}`)},
	}
	for i, e := range cases {
		if err := s.ImportCacheEntry(e); err == nil {
			t.Errorf("case %d (%s/%s) imported without error", i, e.Key, e.Kind)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("rejected imports left %d cache entries", n)
	}
}

func validTestKey() string {
	var k cache.Key
	return k.String()
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
	for _, e := range []CacheEntry{
		{Key: keys[0].String(), Kind: "run"},
		{Key: caseKey(t, "/compile", comp).String(), Kind: "compile"},
	} {
		e.Body = []byte(`{"key":"` + e.Key + `","cached":true,"cycles":"many","loops":7}`)
		if err := s.ImportCacheEntry(e); err != nil {
			t.Fatalf("import %s: %v", e.Kind, err)
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
// run entry, sweeps that decode it, hits that render its hit body and
// exports, all agree with the owner (run under -race: the decode and the
// render each happen once, on whichever goroutine comes first).
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
	k := caseKey(t, "/run", runReq)
	e, _ := a.ExportCacheEntry(k)
	if err := b.ImportCacheEntry(e); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(runReq)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if got, err := b.EvalSweep(context.Background(), sweep); err != nil || !reflect.DeepEqual(got, wantSweep) {
					t.Errorf("sweep on the importer: %+v (%v), want %+v", got, err, wantSweep)
				}
			case 1:
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
			default:
				if got, ok := b.ExportCacheEntry(k); !ok || !bytes.Equal(got.Body, e.Body) {
					t.Error("re-export differs from the imported body")
				}
			}
		}()
	}
	wg.Wait()
}
