package service

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sweepAnswerCases is how many random responses
// TestSweepAnswerMatchesEncodeIndented compares; the race detector, which
// has nothing to find in one goroutine, gets a tenth of them.
func sweepAnswerCases() int {
	if raceEnabled {
		return 2000
	}
	return 20000
}

// TestSweepAnswerMatchesEncodeIndented: appendSweepResponse writes the
// bytes encodeIndented writes, for the edge cases of encoding/json's string
// and float formats and for random responses over them.
func TestSweepAnswerMatchesEncodeIndented(t *testing.T) {
	pt := SweepPoint{X: 4, P: 8, Chunk: 1, BusLatency: 2, Scheme: "process(X=4)", Cycles: 1444, SyncTraffic: 96, SyncOps: 48, Speedup: 3.25}
	with := func(f func(*SweepPoint)) SweepPoint {
		p := pt
		f(&p)
		return p
	}
	edge := []*SweepResponse{
		{Workload: "fig21", Points: []SweepPoint{pt}, Pareto: []SweepPoint{pt}},
		{Workload: "fig21", Points: []SweepPoint{with(func(p *SweepPoint) { p.G = 3 })}, Pareto: nil},
		{Workload: "fig21", Points: []SweepPoint{}, Pareto: []SweepPoint{}},
		{Workload: "", Points: nil, Pareto: nil},
		{Workload: "<b>&\"x\"</b>", Failed: 1, Points: []SweepPoint{
			with(func(p *SweepPoint) { p.Error = "a < b && c > \"d\"\nline two\t\\ \xff\xc3    é \x00\x1f\x7f" }),
		}},
		{Workload: "tiny", Evaluated: 3, CacheHits: 2, Points: []SweepPoint{
			with(func(p *SweepPoint) { p.Speedup = 3e-9; p.Cached = true }),
			with(func(p *SweepPoint) { p.Speedup = 1.5e22; p.G = -7 }),
			with(func(p *SweepPoint) { p.Speedup = 1e21 }),
			with(func(p *SweepPoint) { p.Speedup = 1e-6 }),
			with(func(p *SweepPoint) { p.Speedup = 9.99e-7 }),
			with(func(p *SweepPoint) { p.Speedup = math.Copysign(0, -1) }),
			with(func(p *SweepPoint) { p.Speedup = math.SmallestNonzeroFloat64 }),
			with(func(p *SweepPoint) { p.Speedup = -math.MaxFloat64 }),
		}},
	}
	for i, r := range edge {
		requireSweepAnswer(t, i, r)
	}
	rng := rand.New(rand.NewSource(37))
	for i := range sweepAnswerCases() {
		requireSweepAnswer(t, len(edge)+i, randomSweepResponse(rng))
	}
	// A response encoding/json cannot marshal fails the same way.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := &SweepResponse{Points: []SweepPoint{with(func(p *SweepPoint) { p.Speedup = f })}}
		if _, err := appendSweepResponse(nil, r); err == nil || encodeIndented(&bytes.Buffer{}, r) == nil {
			t.Errorf("speedup %v: appender error %v; encodeIndented must fail too", f, err)
		}
	}
}

func requireSweepAnswer(t *testing.T, i int, r *SweepResponse) {
	t.Helper()
	var want bytes.Buffer
	if err := encodeIndented(&want, r); err != nil {
		t.Fatalf("case %d: encodeIndented: %v", i, err)
	}
	got, err := appendSweepResponse(nil, r)
	if err != nil {
		t.Fatalf("case %d: appendSweepResponse: %v", i, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("case %d: appender wrote\n%s\nencodeIndented wrote\n%s", i, got, want.Bytes())
	}
}

// sweepStringParts are the pieces random strings are made of: plain
// ASCII and every kind of byte encoding/json escapes or replaces.
var sweepStringParts = []string{"a", "Z", "9", " ", "-", "(", "=", "process", "<", ">", "&", "\"", "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "\xff", "\xc3", "é", " ", " ", "\U0001F600", "�"}

func randomSweepString(rng *rand.Rand) string {
	var sb strings.Builder
	for range rng.Intn(6) {
		sb.WriteString(sweepStringParts[rng.Intn(len(sweepStringParts))])
	}
	return sb.String()
}

func randomSweepFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return float64(rng.Intn(64)) / 4
	case 1:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(61)-30))
	case 2:
		return -rng.ExpFloat64()
	}
	return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // finite
}

func randomSweepInt(rng *rand.Rand) int64 {
	if rng.Intn(4) == 0 {
		return 0
	}
	return rng.Int63n(1<<uint(rng.Intn(62)+1)) - rng.Int63n(8)
}

func randomSweepPoints(rng *rand.Rand) []SweepPoint {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []SweepPoint{}
	}
	pts := make([]SweepPoint, rng.Intn(5)+1)
	for i := range pts {
		pts[i] = SweepPoint{
			X: int(randomSweepInt(rng)), P: int(randomSweepInt(rng)),
			Chunk: randomSweepInt(rng), G: randomSweepInt(rng), BusLatency: randomSweepInt(rng),
			Scheme: randomSweepString(rng), Cached: rng.Intn(2) == 0,
			Cycles: randomSweepInt(rng), SyncTraffic: randomSweepInt(rng), SyncOps: randomSweepInt(rng),
			Speedup: randomSweepFloat(rng),
		}
		if rng.Intn(3) == 0 {
			pts[i].Error = randomSweepString(rng)
		}
	}
	return pts
}

func randomSweepResponse(rng *rand.Rand) *SweepResponse {
	return &SweepResponse{
		Workload:  randomSweepString(rng),
		Evaluated: int(randomSweepInt(rng)),
		Failed:    int(randomSweepInt(rng)),
		CacheHits: int(randomSweepInt(rng)),
		Points:    randomSweepPoints(rng),
		Pareto:    randomSweepPoints(rng),
	}
}
