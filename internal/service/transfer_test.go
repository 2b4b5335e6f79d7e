package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// TestOnCacheFillHook: the hook fires once per fresh fill with the filled
// key, whose portable encoding is exportable, and never on hits.
func TestOnCacheFillHook(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var mu sync.Mutex
	var fills []CacheEntry
	var s *Server
	s = NewServer(Options{Workers: 2, Logger: quiet, OnCacheFill: func(k cache.Key) {
		e, _ := s.ExportCacheEntry(k)
		mu.Lock()
		fills = append(fills, e)
		mu.Unlock()
	}})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	runReq := RunRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 24},
		Scheme:   SchemeSpec{Name: "process", X: 4},
		Config:   ConfigSpec{P: 4},
	}
	postJSON(t, hs.URL+"/run", runReq)
	postJSON(t, hs.URL+"/run", runReq) // hit: no second fill

	mu.Lock()
	defer mu.Unlock()
	if len(fills) != 1 {
		t.Fatalf("OnCacheFill fired %d times for one fill + one hit, want 1", len(fills))
	}
	if fills[0].Kind != "run" || len(fills[0].Body) == 0 {
		t.Errorf("fill entry = %+v, want a run entry with a body", fills[0])
	}
}
