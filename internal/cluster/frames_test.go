package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/service"
)

// frameCases are one keyed request per cached route, and a compile
// refusal, whose hit answer is a 400.
var frameCases = []struct {
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

func frameCaseKey(t testing.TB, req any) cache.Key {
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

// standaloneServer is one service.Server behind a test HTTP server.
func standaloneServer(t testing.TB) (*service.Server, string) {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := service.NewServer(service.Options{Workers: 2, Logger: quiet})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs.URL
}

// ownerHits fills every frame case on a fresh owner and returns the owner,
// its hit answer for each case and its exported entries.
func ownerHits(t *testing.T) (*service.Server, [][]byte, []service.CacheEntry) {
	t.Helper()
	owner, url := standaloneServer(t)
	var hits [][]byte
	var entries []service.CacheEntry
	for _, c := range frameCases {
		var body []byte
		for pass := 0; pass < 2; pass++ {
			var resp *http.Response
			resp, body = postNode(t, url, c.route, c.req, nil)
			if resp.StatusCode != c.code {
				t.Fatalf("%s on the owner: %d %s", c.route, resp.StatusCode, body)
			}
		}
		hits = append(hits, body)
		e, ok := owner.ExportCacheEntry(frameCaseKey(t, c.req))
		if !ok {
			t.Fatalf("%s: the owner exports no entry", c.route)
		}
		entries = append(entries, e)
	}
	return owner, hits, entries
}

// TestHandoffFramesByteIdentity: entries that cross /internal/handoff in
// frames are served byte-identically to the owner's own hit answers on
// /run, /verify and /compile, a compile refusal's 400 included, and so are
// they after a second hop, re-exported by the first receiver as the
// anti-entropy and drain paths do. A sweep on the receiver reads the
// imported run entry as the owner's sweep point.
func TestHandoffFramesByteIdentity(t *testing.T) {
	owner, want, entries := ownerHits(t)
	peer := map[string]string{HeaderForwarded: "1", HeaderNode: "owner"}
	for hop := 1; hop <= 2; hop++ {
		tc := startCluster(t, 1, Options{})
		batch := HandoffRequest{From: "owner", Reason: "replicate", Entries: entries}
		if resp, body := postNode(t, tc.addrs[0], "/internal/handoff", batch.frames(), peer); resp.StatusCode != http.StatusOK {
			t.Fatalf("hop %d: handoff %d %s", hop, resp.StatusCode, body)
		}
		for i, c := range frameCases {
			resp, got := postNode(t, tc.addrs[0], c.route, c.req, nil)
			if resp.StatusCode != c.code || !bytes.Equal(got, want[i]) {
				t.Errorf("hop %d: %s answers %d\n%s\nthe owner's hit is %d\n%s", hop, c.route, resp.StatusCode, got, c.code, want[i])
			}
		}
		// The next hop receives what this one re-exports: the same bytes.
		next := make([]service.CacheEntry, len(entries))
		for i, e := range entries {
			k, err := cache.ParseKey(e.Key)
			if err != nil {
				t.Fatal(err)
			}
			var ok bool
			if next[i], ok = tc.nodes[0].srv.ExportCacheEntry(k); !ok || !reflect.DeepEqual(next[i], e) {
				t.Fatalf("hop %d: re-export of the %s entry differs from what arrived", hop, e.Kind)
			}
		}
		entries = next
		if hop == 2 {
			sweep := service.SweepRequest{Workload: testRunReq.Workload, Scheme: testRunReq.Scheme, Config: testRunReq.Config}
			if _, keys, err := service.SweepPointKeys(sweep); err != nil || len(keys) != 1 || keys[0] != frameCaseKey(t, testRunReq) {
				t.Fatalf("sweep point keys %v (%v), want the /run case's key alone", keys, err)
			}
			wantSweep, err := owner.EvalSweep(context.Background(), sweep) // a hit on the owner
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.nodes[0].srv.EvalSweep(context.Background(), sweep)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantSweep) || !got.Points[0].Cached {
				t.Errorf("sweep on the receiver:\n%+v\nthe owner's:\n%+v", got, wantSweep)
			}
		}
	}
}

// TestHandoffImportCopiesBodies: an imported entry keeps its own copy of
// its body, at exactly its length, so it pins none of the batch buffer it
// arrived in. Overwriting that buffer changes nothing the entry serves or
// re-exports.
func TestHandoffImportCopiesBodies(t *testing.T) {
	_, want, entries := ownerHits(t)
	buf := (&HandoffRequest{From: "owner", Reason: "replicate", Entries: entries}).frames()
	batch, err := parseFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	replica, url := standaloneServer(t)
	for _, e := range batch.Entries {
		if err := replica.ImportCacheEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := range buf {
		buf[i] = 'x'
	}
	for i, c := range frameCases {
		e := entries[i]
		got, ok := replica.ExportCacheEntry(frameCaseKey(t, c.req))
		if !ok || !bytes.Equal(got.Body, e.Body) {
			t.Fatalf("%s: stored body changed with the batch buffer", c.route)
		}
		if cap(got.Body) != len(got.Body) {
			t.Errorf("%s: stored body has capacity %d for %d bytes", c.route, cap(got.Body), len(got.Body))
		}
		resp, body := postNode(t, url, c.route, c.req, nil)
		if resp.StatusCode != c.code || !bytes.Equal(body, want[i]) {
			t.Errorf("%s after the overwrite: %d\n%s\nwant %d\n%s", c.route, resp.StatusCode, body, c.code, want[i])
		}
	}
}

// postHandoff hands body to n's handoff handler directly, with no network.
func postHandoff(n *Node, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	n.handleHandoff(w, httptest.NewRequest(http.MethodPost, "/internal/handoff", bytes.NewReader(body)))
	return w
}

// TestHandoffFrameRejects: a body that is not well-formed frames is a 400
// and imports nothing: the JSON batch a node from before the frame format
// sends, another format version, a truncated frame, and a length past the
// end of the body.
func TestHandoffFrameRejects(t *testing.T) {
	n := quietNode(t, Options{Self: "solo"}, nil)
	e := syntheticEntries(t, func(cache.Key) bool { return true }, 1)[0]
	ok := (&HandoffRequest{From: "n1", Reason: "drain", Entries: []service.CacheEntry{e}}).frames()
	bodies := map[string][]byte{
		"json batch":       []byte(`{"from":"n1","reason":"drain","entries":[]}`),
		"wrong version":    append([]byte("dsho\x02"), ok[len(handoffMagic):]...),
		"truncated":        ok[:len(ok)-1],
		"oversized length": append(binary.AppendUvarint(append([]byte(handoffMagic), 0, 0), 1<<40), 'x'),
	}
	for name, body := range bodies {
		if w := postHandoff(n, body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, w.Code, w.Body)
		}
	}
	if got := n.handoffRecvEntries.Load(); got != 0 {
		t.Fatalf("rejected bodies imported %d entries", got)
	}
	if w := postHandoff(n, ok); w.Code != http.StatusOK || n.handoffRecvEntries.Load() != 1 {
		t.Errorf("well-formed batch: %d %s, %d imported", w.Code, w.Body, n.handoffRecvEntries.Load())
	}
}

// FuzzHandoffFrames: parsing any body never panics (so never reads past
// it), and each entry body it returns is capped at its own length. A body that parses re-encodes to a body that parses to the same
// batch; one that does not is a 400 from the handler.
func FuzzHandoffFrames(f *testing.F) {
	entries := []service.CacheEntry{
		{Key: "00", Kind: "run", Body: []byte(`{"key":"00","cached":true}`)},
		{Key: "", Kind: "", Body: nil},
	}
	ok := (&HandoffRequest{From: "n0", Reason: "replicate", Entries: entries}).frames()
	f.Add(ok)
	f.Add(ok[:len(ok)-3])
	f.Add([]byte(handoffMagic))
	f.Add(binary.AppendUvarint([]byte(handoffMagic), 1<<62))
	f.Add([]byte(`{"from":"n0","reason":"drain","entries":[]}`))
	n := quietNode(f, Options{Self: "solo"}, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseFrames(data)
		if err != nil {
			if w := postHandoff(n, data); w.Code != http.StatusBadRequest {
				t.Fatalf("unparsable body answered %d, want 400", w.Code)
			}
			return
		}
		for _, e := range h.Entries {
			if cap(e.Body) != len(e.Body) {
				t.Fatalf("entry body capacity %d for %d bytes", cap(e.Body), len(e.Body))
			}
		}
		again, err := parseFrames(h.frames())
		if err != nil {
			t.Fatalf("re-encoded batch does not parse: %v", err)
		}
		if again.From != h.From || again.Reason != h.Reason || len(again.Entries) != len(h.Entries) {
			t.Fatalf("round trip changed the batch header: %+v, want %+v", again, h)
		}
		for i, e := range h.Entries {
			a := again.Entries[i]
			if a.Key != e.Key || a.Kind != e.Kind || !bytes.Equal(a.Body, e.Body) {
				t.Fatalf("round trip changed entry %d: %+v, want %+v", i, a, e)
			}
		}
	})
}

// BenchmarkHandoff times one 64-entry replication batch without the
// network: the owner exports 64 computed /run entries, frames them, and the
// receiver's handler parses and imports them. It reports ns and
// allocations per entry, both sides together.
func BenchmarkHandoff(b *testing.B) {
	owner, url := standaloneServer(b)
	var keys []cache.Key
	for i := 0; len(keys) < handoffBatch; i++ {
		req := testRunReq
		req.Workload.N = int64(16 + i)
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("fill N=%d: %d", req.Workload.N, resp.StatusCode)
		}
		keys = append(keys, frameCaseKey(b, req))
	}
	recv := quietNode(b, Options{Self: "solo"}, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := HandoffRequest{From: "n1", Reason: "replicate", Entries: make([]service.CacheEntry, 0, len(keys))}
		for _, k := range keys {
			e, ok := owner.ExportCacheEntry(k)
			if !ok {
				b.Fatal("entry evicted")
			}
			batch.Entries = append(batch.Entries, e)
		}
		if w := postHandoff(recv, batch.frames()); w.Code != http.StatusOK {
			b.Fatalf("handoff: %d %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	entries := float64(b.N * len(keys))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
}

// framePoint is a sweep point with every field set, its strings HTML- and
// UTF-8-hostile.
var framePoint = service.SweepPoint{X: 16, P: -1, Chunk: 1 << 40, G: -3, BusLatency: 4, Scheme: "process(X=16)",
	Cached: true, Cycles: 1444, SyncTraffic: 1 << 62, SyncOps: -(1 << 62), Speedup: 3.25, Error: "a < b && \"c\"\n\xff"}

// TestSweepFrameRejects: point frames round-trip field for field, and
// parsePoints refuses a wrong magic or version, a truncated body, an
// overlong varint, a field length past the end, a bool other than 0 or 1,
// trailing bytes and a count other than the sub-grid's.
func TestSweepFrameRejects(t *testing.T) {
	pts := []service.SweepPoint{framePoint, {Scheme: "ref"}}
	ok := pointFrames(pts)
	got, err := parsePoints(ok, len(pts))
	if err != nil || !reflect.DeepEqual(got, pts) {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, pts)
	}
	if got, err := parsePoints(pointFrames(nil), 0); err != nil || len(got) != 0 {
		t.Fatalf("empty sub-grid: %+v, %v", got, err)
	}
	// The last point is {Scheme: "ref"}: 5 zero varints, the scheme field,
	// the bool, 3 zero varints, 8 float bytes and an empty field.
	cached := len(ok) - 22 + 5 + 4
	cases := []struct {
		name  string
		body  []byte
		count int
		err   string // a substring of the parse error
	}{
		{"json answer", []byte(`{"points":[]}`), 2, "wrong magic"},
		{"wrong version", append([]byte("dssp\x02"), ok[len(pointsMagic):]...), 2, "wrong magic"},
		{"truncated", ok[:len(ok)-1], 2, "truncated or overlong varint"},
		{"truncated float", ok[:len(ok)-2], 2, "truncated float"},
		{"trailing bytes", append(slices.Clip(ok), 0), 2, "after the last point"},
		{"overlong varint", append([]byte(pointsMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), 2, "overlong"},
		{"oversized length", append(binary.AppendUvarint(append(binary.AppendUvarint([]byte(pointsMagic), 1), 0, 0, 0, 0, 0), 1<<40), make([]byte, 20)...), 1, "exceeds"},
		{"bool 2", append(append(slices.Clip(ok[:cached]), 2), ok[cached+1:]...), 2, "invalid bool"},
		{"huge count", binary.AppendUvarint([]byte(pointsMagic), 1<<60), 1 << 60, "cannot fit"},
		{"count below", ok, 1, "2 points for a 1-point sub-grid"},
		{"count above", ok, 3, "2 points for a 3-point sub-grid"},
	}
	for _, c := range cases {
		if got, err := parsePoints(c.body, c.count); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: parsed %+v, error %v; want an error naming %q", c.name, got, err, c.err)
		}
	}
}

// FuzzSweepFrames: parsing any body never panics, and the points of every
// body that parses re-encode to a body that parses to the same points; a
// point built from fuzzed fields round-trips field for field, its float
// bit for bit.
func FuzzSweepFrames(f *testing.F) {
	ok := pointFrames([]service.SweepPoint{framePoint, {}})
	f.Add(ok, 16, -1, int64(1), int64(0), int64(4), "process(X=16)", true, int64(1444), int64(96), int64(48), 3.25, "")
	f.Add(ok[:len(ok)-3], 0, 0, int64(0), int64(0), int64(0), "", false, int64(0), int64(0), int64(0), 0.0, "a < b\n\xff")
	f.Add([]byte(pointsMagic), 2, 8, int64(-1), int64(1<<62), int64(-1<<62), "ref", false, int64(1), int64(2), int64(3), -0.0, "x")
	f.Add(binary.AppendUvarint([]byte(pointsMagic), 1<<62), 0, 0, int64(0), int64(0), int64(0), "", false, int64(0), int64(0), int64(0), 1e300, "")
	f.Fuzz(func(t *testing.T, data []byte, x, p int, chunk, g, lat int64, scheme string, cached bool, cycles, traffic, ops int64, speedup float64, msg string) {
		want := 0
		if n, k := binary.Uvarint(bytes.TrimPrefix(data, []byte(pointsMagic))); k > 0 && n < 1<<20 {
			want = int(n)
		}
		if pts, err := parsePoints(data, want); err == nil {
			requireFramesRoundTrip(t, pts)
		}
		requireFramesRoundTrip(t, []service.SweepPoint{{X: x, P: p, Chunk: chunk, G: g, BusLatency: lat, Scheme: scheme,
			Cached: cached, Cycles: cycles, SyncTraffic: traffic, SyncOps: ops, Speedup: speedup, Error: msg}})
	})
}

// requireFramesRoundTrip fails unless pts, encoded as point frames, parse
// back field for field, their floats bit for bit.
func requireFramesRoundTrip(t *testing.T, pts []service.SweepPoint) {
	t.Helper()
	got, err := parsePoints(pointFrames(pts), len(pts))
	if err != nil {
		t.Fatalf("point frames of %+v do not parse: %v", pts, err)
	}
	for i, q := range got {
		p := pts[i]
		if math.Float64bits(q.Speedup) != math.Float64bits(p.Speedup) {
			t.Fatalf("point %d: speedup %v came back as %v", i, p.Speedup, q.Speedup)
		}
		q.Speedup = p.Speedup
		if q != p {
			t.Fatalf("point %d: %+v came back as %+v", i, p, q)
		}
	}
}
