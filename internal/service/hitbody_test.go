package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
)

// hitCases are one keyed request per cached route.
var hitCases = []struct {
	route string
	req   any
}{
	{"/run", RunRequest{
		Workload: WorkloadSpec{Name: "branchy", N: 20},
		Scheme:   SchemeSpec{Name: "process", X: 4},
		Config:   ConfigSpec{P: 4},
	}},
	{"/verify", VerifyRequest{
		Workload: WorkloadSpec{Name: "recurrence", N: 16},
		Scheme:   SchemeSpec{Name: "ref"},
		Config:   ConfigSpec{P: 3},
		Dynamic:  true,
	}},
	{"/compile", CompileRequest{
		Source:  "package p\nfunc k(a []int) {\n\tfor i := 1; i < 20; i++ {\n\t\ta[i] = a[i-1] + i\n\t}\n}\n",
		Schemes: []SchemeSpec{{Name: "process", X: 2}, {Name: "ref"}},
		Config:  ConfigSpec{P: 4},
	}},
}

// decoratedHit renders what writeJSON serves for a hit on the entry under
// k: the stored struct decorated with cached: true and the key, two-space
// indented with a trailing newline.
func decoratedHit(t *testing.T, s *Server, k cache.Key) []byte {
	t.Helper()
	v, ok := s.cache.Peek(k)
	if !ok {
		t.Fatalf("no entry under %s", k)
	}
	var d any
	switch e := v.(type) {
	case *runResult:
		d = e.decorate(k, true)
	case *verifyResult:
		d = e.decorate(k, true)
	case *compileResult:
		d = e.decorate(k, true)
	default:
		t.Fatalf("unexpected cache value %T", v)
	}
	var buf bytes.Buffer
	if err := encodeIndented(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func caseKey(t *testing.T, route string, req any) cache.Key {
	t.Helper()
	var k cache.Key
	var err error
	switch r := req.(type) {
	case RunRequest:
		k, err = RunKey(r)
	case VerifyRequest:
		k, err = VerifyKey(r)
	case CompileRequest:
		k, err = CompileRequestKey(r)
	}
	if err != nil {
		t.Fatalf("%s: key: %v", route, err)
	}
	return k
}

// TestHitBodyByteIdentity: for /run, /verify and /compile a hit answers
// with exactly the indented encoding of the decorated cached struct — on
// the node that filled the entry and on a node that imported it — and the
// fill and the hit differ only in the cached flag.
func TestHitBodyByteIdentity(t *testing.T) {
	a, ha := transferTestServer(t)
	b, hb := transferTestServer(t)
	for _, c := range hitCases {
		k := caseKey(t, c.route, c.req)
		code, fill := postJSON(t, ha.URL+c.route, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s fill: %d %s", c.route, code, fill)
		}
		code, hit := postJSON(t, ha.URL+c.route, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s hit: %d %s", c.route, code, hit)
		}
		if want := decoratedHit(t, a, k); !bytes.Equal(hit, want) {
			t.Errorf("%s: filled entry's hit body differs from the decorated encoding:\ngot:  %s\nwant: %s", c.route, hit, want)
		}
		if !bytes.Equal(bytes.Replace(fill, []byte(`"cached": false`), []byte(`"cached": true`), 1), hit) {
			t.Errorf("%s: fill and hit differ beyond the cached flag:\nfill: %s\nhit:  %s", c.route, fill, hit)
		}

		importHit(t, b, k, c.route, hit)
		code, imported := postJSON(t, hb.URL+c.route, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s imported hit: %d %s", c.route, code, imported)
		}
		if want := decoratedHit(t, b, k); !bytes.Equal(imported, want) {
			t.Errorf("%s: imported entry's hit body differs from the decorated encoding:\ngot:  %s\nwant: %s", c.route, imported, want)
		}
		if !bytes.Equal(imported, hit) {
			t.Errorf("%s: imported entry serves different bytes than the filling node", c.route)
		}
	}
}

// TestHitBodyConcurrent: concurrent first hits on an imported entry render
// its hit body once and all serve the same bytes (run under -race: the
// body is shared by every goroutine serving the entry).
func TestHitBodyConcurrent(t *testing.T) {
	_, ha := transferTestServer(t)
	b, hb := transferTestServer(t)
	for _, c := range hitCases {
		k := caseKey(t, c.route, c.req)
		postJSON(t, ha.URL+c.route, c.req)
		code, hit := postJSON(t, ha.URL+c.route, c.req)
		if code != http.StatusOK {
			t.Fatalf("%s hit: %d %s", c.route, code, hit)
		}
		importHit(t, b, k, c.route, hit)
		reqBody, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		bodies := make([][]byte, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(hb.URL+c.route, "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				bodies[i], errs[i] = io.ReadAll(resp.Body)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		want := decoratedHit(t, b, k)
		for i, got := range bodies {
			if !bytes.Equal(got, want) {
				t.Errorf("%s: concurrent hit %d body differs:\ngot:  %s\nwant: %s", c.route, i, got, want)
			}
		}
	}
}
