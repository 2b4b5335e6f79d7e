package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// headerRequestID carries the benchmark's request ID on the entry hop of
// a traced request. The server ignores it; the tracer reads it.
const headerRequestID = "X-Dsload-Request"

// failedLatencyMs is recorded for a request that failed, so that a failure
// counts as missing every latency limit.
const failedLatencyMs = 60000

// loadgen sends pre-generated requests from nproc sender goroutines over
// one shared transport, so at most nproc requests and connections are in
// flight.
type loadgen struct {
	hc      *http.Client
	bases   []string
	chk     *checker
	senders int
}

func newLoadgen(bases []string, chk *checker) *loadgen {
	senders := runtime.NumCPU()
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        senders * len(bases),
		MaxIdleConnsPerHost: senders,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &loadgen{
		hc:      &http.Client{Transport: tr, Timeout: failedLatencyMs * time.Millisecond},
		bases:   bases,
		chk:     chk,
		senders: senders,
	}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// sample is what one sender observed in a phase; phaseResult merges them.
type sample struct {
	lat       []float64 // ms, one per request
	wakeLate  []float64 // ms a sender woke after a due time it slept for
	overdue   int       // requests already due when a sender picked them up
	done      int
	points    int
	rejected  int // 429 answers
	respBytes int64
	spans     []span   // traced: client spans
	kept      []caught // traced: answers kept for replay
}

// caught is one traced answer.
type caught struct {
	o      *op
	body   []byte
	cached bool
}

type phaseResult struct {
	sample
	elapsed time.Duration
}

func (r *phaseResult) add(s *sample) {
	r.lat = append(r.lat, s.lat...)
	r.wakeLate = append(r.wakeLate, s.wakeLate...)
	r.overdue += s.overdue
	r.done += s.done
	r.points += s.points
	r.rejected += s.rejected
	r.respBytes += s.respBytes
	r.spans = append(r.spans, s.spans...)
	r.kept = append(r.kept, s.kept...)
}

func (g *loadgen) send(o *op, traced bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, g.bases[o.node]+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(headerRequestID, strconv.FormatInt(o.id, 10))
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// do sends one request timed from start, then judges the answer.
func (g *loadgen) do(o *op, start time.Time, s *sample, tr *tracer) {
	sent := time.Now()
	status, body, err := g.send(o, tr != nil)
	end := time.Now()
	cached, ok := g.chk.check(o, status, body, err)
	lat := ms(end.Sub(start))
	if !ok {
		lat = failedLatencyMs
	}
	s.lat = append(s.lat, lat)
	s.done++
	if status == http.StatusTooManyRequests {
		s.rejected++
	}
	if ok {
		s.points += o.points
	}
	s.respBytes += int64(len(body))
	if tr != nil {
		s.spans = append(s.spans, tr.clientSpan(o, sent, end))
		s.kept = append(s.kept, caught{o, body, cached})
	}
}

// runOpen sends ops at their due times, less base. A request already
// overdue when a sender picks it up is timed from its due time, so
// backlog counts; otherwise it is timed from the sender's wake-up, so
// sleep overshoot does not (it is reported as wakeLate instead).
func (g *loadgen) runOpen(ops []op, base time.Duration, tr *tracer) phaseResult {
	start := time.Now()
	var next atomic.Int64
	samples := make([]sample, g.senders)
	var wg sync.WaitGroup
	for i := range samples {
		wg.Add(1)
		go func(s *sample) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				o := &ops[i]
				due := start.Add(o.at - base)
				var from time.Time
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					s.wakeLate = append(s.wakeLate, ms(from.Sub(due)))
				} else {
					from = due
					s.overdue++
				}
				g.do(o, from, s, tr)
			}
		}(&samples[i])
	}
	wg.Wait()
	return merge(samples, time.Since(start))
}

// runClosed keeps clients senders (at most g.senders) busy for d, taking
// ops from *next on; a cyclic list wraps around, any other list ends the
// phase when it runs out.
func (g *loadgen) runClosed(ops []op, next *atomic.Int64, d time.Duration, cyclic bool, clients int, tr *tracer) phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	samples := make([]sample, min(clients, g.senders))
	var wg sync.WaitGroup
	for i := range samples {
		wg.Add(1)
		go func(s *sample) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					if !cyclic {
						return
					}
					i %= int64(len(ops))
				}
				g.do(&ops[i], time.Now(), s, tr)
			}
		}(&samples[i])
	}
	wg.Wait()
	return merge(samples, time.Since(start))
}

func merge(samples []sample, elapsed time.Duration) phaseResult {
	r := phaseResult{elapsed: elapsed}
	for i := range samples {
		r.add(&samples[i])
	}
	return r
}

// prewarm sends the hot keys one at a time; each fill is judged like any
// other answer and becomes the reference later hits are compared with.
func (g *loadgen) prewarm(ops []op) {
	var s sample
	for i := range ops {
		g.do(&ops[i], time.Now(), &s, nil)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
