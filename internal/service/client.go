package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Client is a small retrying JSON client for dsserve. Backpressure answers
// (429 queue-full, 503 draining) and transport errors are retried with
// capped exponential backoff plus jitter; a Retry-After header overrides
// the computed delay. Everything else is returned to the caller on the
// first attempt.
type Client struct {
	// Base is the server address, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per request (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Header, when set, is added to every request. The cluster layer uses
	// it for the peer protocol: the shared peer token, the forwarded flag
	// and the sending node's attribution ride here.
	Header http.Header
}

func (c *Client) withDefaults() Client {
	out := *c
	if out.HTTP == nil {
		out.HTTP = http.DefaultClient
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 5
	}
	if out.BaseDelay <= 0 {
		out.BaseDelay = 100 * time.Millisecond
	}
	if out.MaxDelay <= 0 {
		out.MaxDelay = 2 * time.Second
	}
	return out
}

// StatusError is a non-200 HTTP answer: the server responded, the response
// just wasn't success. A caller that must branch on the code unwraps it
// with errors.As.
type StatusError struct {
	Path string
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s: %d %s", e.Path, e.Code, e.Msg)
}

// PostJSON posts in to path and decodes the 200 response into out,
// retrying retryable failures as configured.
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	var decode func([]byte) error
	if out != nil {
		decode = func(b []byte) error { return json.Unmarshal(b, out) }
	}
	return c.PostBody(ctx, path, body, decode)
}

// PostBody posts a JSON body already encoded, with PostJSON's retries, and
// hands the 200 response body, JSON or not, to decode (when non-nil). A
// decode error is returned at once, not retried.
func (c *Client) PostBody(ctx context.Context, path string, body []byte, decode func([]byte) error) error {
	cl := c.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := cl.post(ctx, path, body)
		var retry bool
		var retryAfter time.Duration
		switch {
		case err != nil:
			lastErr, retry = err, true
		case resp.code == http.StatusOK:
			if decode == nil {
				return nil
			}
			if err := decode(resp.body); err != nil {
				return fmt.Errorf("client: decode response: %w", err)
			}
			return nil
		case resp.code == http.StatusTooManyRequests || resp.code == http.StatusServiceUnavailable:
			lastErr = &StatusError{Path: path, Code: resp.code, Msg: resp.message()}
			retry, retryAfter = true, resp.retryAfter
		default:
			return &StatusError{Path: path, Code: resp.code, Msg: resp.message()}
		}
		if !retry || attempt >= cl.MaxAttempts {
			return fmt.Errorf("client: giving up after %d attempts: %w", attempt, lastErr)
		}
		delay := cl.backoff(attempt)
		if retryAfter > 0 {
			delay = retryAfter
		}
		if err := sleepCtx(ctx, delay); err != nil {
			return err
		}
	}
}

// sleepCtx sleeps for delay unless ctx ends first: a canceled request must
// return promptly even mid-backoff (a server-driven Retry-After can park a
// retry for many seconds), and the timer is stopped rather than left to
// fire into a dead select.
func sleepCtx(ctx context.Context, delay time.Duration) error {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: cancelled while backing off: %w", ctx.Err())
	}
}

// backoff is BaseDelay*2^(attempt-1) capped at MaxDelay, with half-width
// jitter so synchronized retriers spread out.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.BaseDelay << (attempt - 1)
	if d > c.MaxDelay || d <= 0 {
		d = c.MaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// clientResp is one decoded HTTP exchange.
type clientResp struct {
	code       int
	body       []byte
	header     http.Header
	retryAfter time.Duration
}

// message extracts the server's error string, falling back to raw body.
func (r clientResp) message() string {
	var e errorResponse
	if json.Unmarshal(r.body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(r.body))
}

func (c *Client) post(ctx context.Context, path string, body []byte) (clientResp, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return clientResp{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range c.Header {
		req.Header[k] = vs
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return clientResp{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return clientResp{}, err
	}
	out := clientResp{code: resp.StatusCode, body: data, header: resp.Header}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		out.retryAfter = parseRetryAfter(ra, time.Now())
	}
	return out, nil
}

// PostRaw posts pre-encoded JSON and relays whatever the server answers —
// status, body and headers — without interpreting HTTP status codes.
// Only transport errors are retried (the server is unreachable, not
// answering); any HTTP response, including 4xx/5xx, belongs to the caller
// verbatim. The cluster layer forwards requests to their owning node this
// way: the owner's answer (a 429 with Retry-After as much as a 200) is the
// answer, while an unreachable owner — after the configured attempts — is
// a node-loss signal the forwarder heals around.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte) (status int, respBody []byte, header http.Header, err error) {
	cl := c.withDefaults()
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := cl.post(ctx, path, body)
		if err == nil {
			return resp.code, resp.body, resp.header, nil
		}
		lastErr = err
		if attempt >= cl.MaxAttempts {
			return 0, nil, nil, fmt.Errorf("client: giving up after %d attempts: %w", attempt, lastErr)
		}
		if err := sleepCtx(ctx, cl.backoff(attempt)); err != nil {
			return 0, nil, nil, err
		}
	}
}

// maxRetryAfter caps server-driven backoff: a far-future HTTP-date (or an
// absurd delta) must not park the client for hours.
const maxRetryAfter = 30 * time.Second

// parseRetryAfter interprets a Retry-After value per RFC 9110 §10.2.3:
// either non-negative delta-seconds or an HTTP-date (any format
// http.ParseTime accepts). Garbage, negative deltas and past dates yield 0
// — no override, the computed backoff applies; anything beyond
// maxRetryAfter is clamped to it.
func parseRetryAfter(ra string, now time.Time) time.Duration {
	var d time.Duration
	if sec, err := strconv.Atoi(ra); err == nil {
		if sec < 0 {
			return 0
		}
		d = time.Duration(sec) * time.Second
	} else if t, err := http.ParseTime(ra); err == nil {
		d = t.Sub(now)
	} else {
		return 0
	}
	if d <= 0 {
		return 0
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}
