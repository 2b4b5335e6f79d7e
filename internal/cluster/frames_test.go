package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/csrd-repro/datasync/internal/service"
)

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
