package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetriesBackpressure: 429s and 503s with Retry-After are
// retried until the server recovers; the final answer comes through.
func TestClientRetriesBackpressure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errorResponse{Error: "queue full"})
		case 2:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(errorResponse{Error: "draining"})
		default:
			json.NewEncoder(w).Encode(RunResponse{Cycles: 42})
		}
	}))
	defer ts.Close()

	c := Client{Base: ts.URL, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	var resp RunResponse
	if err := c.PostJSON(context.Background(), "/run", RunRequest{}, &resp); err != nil {
		t.Fatalf("retrying client gave up: %v", err)
	}
	if resp.Cycles != 42 {
		t.Errorf("cycles = %d, want 42", resp.Cycles)
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3 (two retries)", calls.Load())
	}
}

// TestClientGivesUpAndFailsFast: persistent 503 exhausts MaxAttempts; a
// 400 is terminal on the first attempt.
func TestClientGivesUpAndFailsFast(t *testing.T) {
	var calls atomic.Int64
	code := http.StatusServiceUnavailable
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(errorResponse{Error: "nope"})
	}))
	defer ts.Close()

	c := Client{Base: ts.URL, MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if err := c.PostJSON(context.Background(), "/run", RunRequest{}, nil); err == nil {
		t.Fatal("client succeeded against a permanently unavailable server")
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3", calls.Load())
	}

	calls.Store(0)
	code = http.StatusBadRequest
	if err := c.PostJSON(context.Background(), "/run", RunRequest{}, nil); err == nil {
		t.Fatal("client retried a 400")
	}
	if calls.Load() != 1 {
		t.Errorf("400 took %d attempts, want 1 (not retryable)", calls.Load())
	}
}

// TestParseRetryAfter: both RFC 9110 Retry-After forms are honored —
// delta-seconds and HTTP-date — with garbage and past dates falling back to
// the computed backoff (0) and oversized values clamped.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"3", 3 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"9999999", maxRetryAfter}, // delta clamped
		{now.Add(7 * time.Second).Format(http.TimeFormat), 7 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},              // past date
		{now.Add(2 * time.Hour).Format(http.TimeFormat), maxRetryAfter}, // date clamped
		{now.Add(5 * time.Second).Format(time.RFC850), 5 * time.Second}, // obsolete RFC 850 form
		{"soon", 0},
		{"", 0},
		{"3.5", 0}, // delta-seconds is an integer; fractions are malformed
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestClientHonorsHTTPDateRetryAfter: a 503 whose Retry-After is an
// HTTP-date (not delta-seconds) still drives the retry delay end to end.
func TestClientHonorsHTTPDateRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// A date ~now: parses to <= 0 → no override, fast test.
			w.Header().Set("Retry-After", time.Now().UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(errorResponse{Error: "draining"})
			return
		}
		json.NewEncoder(w).Encode(RunResponse{Cycles: 7})
	}))
	defer ts.Close()

	c := Client{Base: ts.URL, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	var resp RunResponse
	if err := c.PostJSON(context.Background(), "/run", RunRequest{}, &resp); err != nil {
		t.Fatalf("client gave up: %v", err)
	}
	if resp.Cycles != 7 || calls.Load() != 2 {
		t.Errorf("cycles = %d calls = %d, want 7/2", resp.Cycles, calls.Load())
	}
}

// TestClientCancelDuringBackoff: a context canceled while the client sleeps
// out a backoff (here a server-driven 20s Retry-After) must abort the sleep
// promptly instead of parking for the full delay — the regression this pins
// is a bare time.Sleep in the retry loop.
func TestClientCancelDuringBackoff(t *testing.T) {
	var calls atomic.Int64
	answered := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "20")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(errorResponse{Error: "draining"})
		if calls.Add(1) == 1 {
			close(answered)
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := Client{Base: ts.URL, MaxAttempts: 3}
	done := make(chan error, 1)
	go func() { done <- c.PostJSON(ctx, "/run", RunRequest{}, nil) }()

	<-answered // the first 503 is out: the client heads into the 20s backoff
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("cancellation took %v to unblock the backoff", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked 5s after cancellation mid-backoff")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("attempts = %d, want 1 (cancelled during the first backoff)", n)
	}
}

// TestClientPostRawRelaysStatus: PostRaw hands back any HTTP answer
// verbatim — a 400 is data, not a retryable failure — while transport
// errors are retried and eventually surfaced.
func TestClientPostRawRelaysStatus(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if got := r.Header.Get("X-DSServe-Peer-Token"); got != "s3cret" {
			t.Errorf("peer token header = %q, want s3cret", got)
		}
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"tenant over quota"}`))
	}))
	defer ts.Close()

	c := Client{Base: ts.URL, MaxAttempts: 3, BaseDelay: time.Millisecond,
		Header: http.Header{"X-Dsserve-Peer-Token": {"s3cret"}}}
	code, body, hdr, err := c.PostRaw(context.Background(), "/run", []byte(`{}`))
	if err != nil {
		t.Fatalf("PostRaw: %v", err)
	}
	if code != http.StatusTooManyRequests || calls.Load() != 1 {
		t.Errorf("code = %d calls = %d, want 429 on the single attempt", code, calls.Load())
	}
	if hdr.Get("Retry-After") != "7" {
		t.Errorf("Retry-After = %q, want relayed 7", hdr.Get("Retry-After"))
	}
	if want := "tenant over quota"; !bytes.Contains(body, []byte(want)) {
		t.Errorf("body %q does not relay %q", body, want)
	}

	ts.Close() // now unreachable: transport errors retry, then surface
	calls.Store(0)
	if _, _, _, err := c.PostRaw(context.Background(), "/run", []byte(`{}`)); err == nil {
		t.Fatal("PostRaw succeeded against a closed server")
	}
}
