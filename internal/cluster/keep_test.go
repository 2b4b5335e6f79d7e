package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// keyedCases are one keyed request per cached route, and a compile
// refusal, whose hit answer is a 400.
var keyedCases = []struct {
	route string
	req   any
	code  int
}{
	{"/run", testRunReq, http.StatusOK},
	{"/verify", service.VerifyRequest{
		Workload: service.WorkloadSpec{Name: "recurrence", N: 16},
		Scheme:   service.SchemeSpec{Name: "ref"},
		Config:   service.ConfigSpec{P: 3},
		Dynamic:  true,
	}, http.StatusOK},
	{"/compile", service.CompileRequest{
		Source:  "package p\nfunc k(a []int) {\n\tfor i := 1; i < 20; i++ {\n\t\ta[i] = a[i-1] + i\n\t}\n}\n",
		Schemes: []service.SchemeSpec{{Name: "process", X: 2}, {Name: "ref"}},
		Config:  service.ConfigSpec{P: 4},
	}, http.StatusOK},
	{"/compile", service.CompileRequest{Source: "package p\nfunc k() {}\n"}, http.StatusBadRequest},
}

func requestKey(t testing.TB, req any) cache.Key {
	t.Helper()
	var k cache.Key
	var err error
	switch r := req.(type) {
	case service.RunRequest:
		k, err = service.RunKey(r)
	case service.VerifyRequest:
		k, err = service.VerifyKey(r)
	case service.CompileRequest:
		k, err = service.CompileRequestKey(r)
	}
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// keepRoles returns the indexes of key's configured owner and of a node
// that does not own it, which holds the key only if it keeps a relayed
// answer.
func keepRoles(t testing.TB, tc *testCluster, key cache.Key) (owner, edge int) {
	t.Helper()
	o := tc.nodes[0].full.Owner(key).ID
	owner, edge = -1, -1
	for i, n := range tc.nodes {
		if n.self.ID == o {
			owner = i
		} else if edge < 0 {
			edge = i
		}
	}
	if owner < 0 || edge < 0 {
		t.Fatalf("no owner or other node for key %s in a %d-node cluster", key, len(tc.nodes))
	}
	return owner, edge
}

// cachedFlag reads an answer's cached field.
func cachedFlag(t *testing.T, body []byte) bool {
	t.Helper()
	var v struct{ Cached bool }
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("answer is not JSON: %v\n%s", err, body)
	}
	return v.Cached
}

// TestForwardedHitIsKept: an entry node that holds no copy of a key
// forwards the first request (the owner's miss answer is not
// kept) and the second (the owner's hit answer is kept), then answers the
// third itself with the owner's hit bytes, on /run, /verify and
// /compile. A compile refusal's 400 is never kept, nor is a doctored 200
// (cached: false, another key's hit, invalid JSON): the entry node keeps
// forwarding those.
func TestForwardedHitIsKept(t *testing.T) {
	t.Run("kept", func(t *testing.T) {
		tc := startCluster(t, 3, Options{})
		for _, c := range keyedCases {
			key := requestKey(t, c.req)
			o, e := keepRoles(t, tc, key)
			edge := tc.nodes[e]
			owner := tc.nodes[o].self.ID
			fwd, kept := edge.forwards.Load(), edge.forwardKept.Load()

			var relayed [2][]byte
			for pass := range relayed {
				resp, body := postNode(t, tc.addrs[e], c.route, c.req, nil)
				fwd++
				if resp.StatusCode != c.code || resp.Header.Get(HeaderNode) != owner || edge.forwards.Load() != fwd {
					t.Fatalf("%s pass %d at %s: %d served by %q with %d forwards; want %d from the owner %s with %d",
						c.route, pass, edge.self.ID, resp.StatusCode, resp.Header.Get(HeaderNode), edge.forwards.Load(), c.code, owner, fwd)
				}
				if got := cachedFlag(t, body); got != (pass == 1) {
					t.Fatalf("%s pass %d: cached %v", c.route, pass, got)
				}
				relayed[pass] = body
			}
			if c.code != http.StatusOK {
				if edge.srv.CacheHas(key) || edge.forwardKept.Load() != kept {
					t.Fatalf("%s %d answer was kept", c.route, c.code)
				}
				continue
			}
			if !edge.srv.CacheHas(key) || edge.forwardKept.Load() != kept+1 {
				t.Fatalf("%s: the owner's hit answer was not kept (held %v, kept %d)", c.route, edge.srv.CacheHas(key), edge.forwardKept.Load()-kept)
			}

			resp, local := postNode(t, tc.addrs[e], c.route, c.req, nil)
			if resp.StatusCode != http.StatusOK || resp.Header.Get(HeaderNode) != edge.self.ID || edge.forwards.Load() != fwd {
				t.Fatalf("%s third pass: %d served by %q with %d forwards; want 200 from %s with %d",
					c.route, resp.StatusCode, resp.Header.Get(HeaderNode), edge.forwards.Load(), edge.self.ID, fwd)
			}
			_, ownerHit := postNode(t, tc.addrs[o], c.route, c.req, nil)
			if !bytes.Equal(local, ownerHit) || !bytes.Equal(relayed[1], ownerHit) {
				t.Errorf("%s: the kept answer differs from the owner's hit\nkept:  %s\nowner: %s", c.route, local, ownerHit)
			}
		}
	})

	t.Run("doctored", func(t *testing.T) {
		// doctor rewrites every forwarded keyed answer while it is set.
		var doctor atomic.Pointer[func([]byte) []byte]
		tc := startClusterWrapped(t, 3, Options{}, service.Options{}, func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				d := doctor.Load()
				keyed := r.URL.Path == "/run" || r.URL.Path == "/verify" || r.URL.Path == "/compile"
				if d == nil || r.Header.Get(HeaderForwarded) == "" || !keyed {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				maps.Copy(w.Header(), rec.Header())
				w.WriteHeader(rec.Code)
				w.Write((*d)(rec.Body.Bytes()))
			})
		})
		for ci, c := range keyedCases {
			if c.code != http.StatusOK {
				continue
			}
			key := requestKey(t, c.req)
			other := requestKey(t, keyedCases[(ci+1)%len(keyedCases)].req)
			o, e := keepRoles(t, tc, key)
			edge := tc.nodes[e]
			kept := edge.forwardKept.Load()
			for pass := 0; pass < 2; pass++ { // the owner holds the key
				postNode(t, tc.addrs[o], c.route, c.req, nil)
			}
			doctors := []struct {
				name string
				f    func([]byte) []byte
			}{
				{"cached false", func(b []byte) []byte {
					return bytes.Replace(b, []byte(`"cached": true`), []byte(`"cached": false`), 1)
				}},
				{"another key's hit", func(b []byte) []byte {
					return bytes.ReplaceAll(b, []byte(key.String()), []byte(other.String()))
				}},
				{"invalid JSON", func(b []byte) []byte { return b[:len(b)/2] }},
			}
			for _, d := range doctors {
				doctor.Store(&d.f)
				for pass := 0; pass < 2; pass++ {
					fwd := edge.forwards.Load()
					resp, body := postNode(t, tc.addrs[e], c.route, c.req, nil)
					if resp.StatusCode != http.StatusOK || edge.forwards.Load() != fwd+1 {
						t.Fatalf("%s, %s, pass %d: %d with %d new forwards, want a forwarded 200\n%s",
							c.route, d.name, pass, resp.StatusCode, edge.forwards.Load()-fwd, body)
					}
					if edge.srv.CacheHas(key) || edge.forwardKept.Load() != kept {
						t.Fatalf("%s, %s: the doctored answer was kept", c.route, d.name)
					}
				}
			}
			// Undoctored, the same forward is kept: the doctoring alone
			// stopped it.
			doctor.Store(nil)
			postNode(t, tc.addrs[e], c.route, c.req, nil)
			if !edge.srv.CacheHas(key) || edge.forwardKept.Load() != kept+1 {
				t.Fatalf("%s: the undoctored owner hit was not kept", c.route)
			}
		}
	})
}

// TestEvictedHeldKeyIsComputed: a held key evicted between the router's
// check and the handler's cache lookup is computed on the entry node, with
// no forward and no error, byte-identical to the owner's own miss answer.
func TestEvictedHeldKeyIsComputed(t *testing.T) {
	tc := startClusterWrapped(t, 3, Options{}, service.Options{CacheSize: 1}, nil)
	key := requestKey(t, testRunReq)
	o, e := keepRoles(t, tc, key)
	edge := tc.nodes[e]
	_, ownerMiss := postNode(t, tc.addrs[o], "/run", testRunReq, nil)
	_, ownerHit := postNode(t, tc.addrs[o], "/run", testRunReq, nil)
	if resp, body := postNode(t, tc.addrs[e], "/run", testRunReq, nil); resp.StatusCode != http.StatusOK ||
		!bytes.Equal(body, ownerHit) || !edge.srv.CacheHas(key) {
		t.Fatalf("forwarded hit: %d, kept %v\n%s", resp.StatusCode, edge.srv.CacheHas(key), body)
	}

	// The handler runs after an import of another key has evicted the held
	// one from the one-entry cache.
	evictor := cache.Key(sha256.Sum256([]byte("evictor")))
	evictorHit, err := json.Marshal(service.RunResponse{Workload: "synthetic", Key: evictor.String(), Cached: true})
	if err != nil {
		t.Fatal(err)
	}
	inner := edge.srv.Handler()
	h := edge.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := edge.srv.ImportCacheEntry(evictor, "run", evictorHit); err != nil {
			t.Error(err)
		}
		inner.ServeHTTP(w, r)
	}))
	body, err := json.Marshal(testRunReq)
	if err != nil {
		t.Fatal(err)
	}
	fwd := edge.forwards.Load()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get(HeaderNode) != edge.self.ID || edge.forwards.Load() != fwd {
		t.Fatalf("evicted held key: %d served by %q with %d new forwards\n%s",
			rec.Code, rec.Header().Get(HeaderNode), edge.forwards.Load()-fwd, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), ownerMiss) {
		t.Errorf("the recomputed answer differs from the owner's miss answer\nedge:  %s\nowner: %s", rec.Body, ownerMiss)
	}
}

// BenchmarkEdgeHit: one warm /run key requested through a 3-node cluster
// node that does not own it. Before entry nodes kept relayed hits, every
// request took the peer hop to the owner; now the entry node answers from
// the entry it kept. ns/op and allocs/op count both nodes' work, since the
// cluster runs in this process.
func BenchmarkEdgeHit(b *testing.B) {
	tc := startCluster(b, 3, Options{})
	key, err := service.RunKey(testRunReq)
	if err != nil {
		b.Fatal(err)
	}
	owner := tc.nodes[0].full.Owner(key).ID
	e := 0
	for tc.nodes[e].self.ID == owner {
		e++
	}
	body, err := json.Marshal(testRunReq)
	if err != nil {
		b.Fatal(err)
	}
	h := tc.handlers[e]
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("/run through %s: %d %s", tc.nodes[e].self.ID, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 3; i++ { // fill on the owner, then hits
		serve()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
