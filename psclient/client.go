// Package psclient is the Go SDK for the psserve HTTP API (package
// serve): it submits query specs (singly or in batches), streams
// server-pushed per-slot events, polls, cancels live queries, lists the
// server's registry and reads engine metrics — speaking the v1
// submission envelope and the v2 event frames of package wire.
//
// Every call is context-aware; submissions transparently retry on HTTP
// 429 (the server's ingest-queue backpressure signal) with exponential
// backoff. Result delivery is push-based: Stream follows a query's
// event sequence (accepted → slot_update* → final|canceled) over one
// long-lived GET /watch request, transparently reconnecting and
// resuming from its last slot cursor if the connection drops.
//
//	c, err := psclient.Dial("http://localhost:8080")
//	q, err := c.Submit(ctx, ps.PointSpec{ID: "p1", Loc: ps.Pt(30, 30), Budget: 15})
//	st := q.Stream()
//	defer st.Close()
//	for {
//		ev, err := st.Next(ctx)
//		if err != nil { break } // psclient.ErrStreamEnded after the terminal frame
//		fmt.Println(ev.Event, ev.Slot)
//	}
//
// Server-side rejections carry stable machine-readable codes; the
// returned *APIError unwraps to the matching ps sentinel, so
// errors.Is(err, ps.ErrNegativeBudget) works across the network exactly
// as it does against a local Aggregator.
package psclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	ps "repro"
	"repro/wire"
)

// APIError is a non-2xx response from the server, carrying the decoded
// {"error": ..., "code": ...} body. When the server supplied a stable
// error code, Unwrap exposes the matching ps sentinel error, so
// errors.Is works across the network:
//
//	_, err := c.Submit(ctx, ps.PointSpec{ID: "p", Budget: -1})
//	errors.Is(err, ps.ErrNegativeBudget) // true
type APIError struct {
	StatusCode int
	Message    string
	// Code is the stable machine-readable error code (see wire.ErrorCode),
	// empty when the server did not supply one.
	Code string
	// RetryAfter is the server's Retry-After hint (zero when absent). The
	// client's own retry loops honor it in preference to their computed
	// backoff; callers doing their own retrying should too.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("psclient: server returned %d: %s", e.StatusCode, e.Message)
}

// Unwrap returns the ps sentinel error named by the response's code
// (e.g. ps.ErrNegativeBudget, ps.ErrQueueFull), or nil for uncoded
// errors.
func (e *APIError) Unwrap() error {
	return wire.SentinelError(e.Code)
}

// Client talks to one psserve daemon.
type Client struct {
	base     *url.URL
	hc       *http.Client
	retries  int
	backoff  time.Duration
	clientID string

	// jitter and sleep are the retry loop's randomness and clock; tests
	// inject deterministic substitutes.
	jitter func() float64
	sleep  func(ctx context.Context, d time.Duration) error
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default
// http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetry configures the backpressure retry policy: up to retries
// re-attempts spaced by full-jitter exponential backoff with ceiling
// base<<attempt (see retryDelay). The default is 4 retries from 50ms.
// retries 0 disables retrying.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) {
		if retries >= 0 {
			c.retries = retries
		}
		if base > 0 {
			c.backoff = base
		}
	}
}

// WithClientID sets a stable client identity sent as the X-Client-ID
// header on every request. The server keys per-client admission control
// (submission rate limits, watch-stream caps) by it; unset, the server
// falls back to the connection's source address — which conflates every
// client behind one NAT or proxy.
func WithClientID(id string) Option {
	return func(c *Client) { c.clientID = id }
}

// Dial builds a client for the daemon at baseURL (e.g.
// "http://localhost:8080"). No connection is made until the first call.
func Dial(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("psclient: bad base URL %q: %v", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("psclient: base URL %q needs an http(s) scheme", baseURL)
	}
	c := &Client{
		base: u, hc: http.DefaultClient, retries: 4, backoff: 50 * time.Millisecond,
		jitter: rand.Float64, sleep: ctxSleep,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// ctxSleep is the default retry sleeper: waits d or until ctx ends.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxBackoff caps the exponential backoff ceiling.
const maxBackoff = 30 * time.Second

// retryDelay computes the wait before re-attempt number attempt
// (0-based). Without a server hint it is AWS-style "full jitter":
// uniform in [0, min(maxBackoff, base<<attempt)), floored at 1ms —
// synchronized clients spread out instead of hammering the server in
// lockstep. A server Retry-After hint takes precedence: the client waits
// the hint plus a jittered fraction of its own backoff, so honoring the
// hint does not re-synchronize the herd.
func (c *Client) retryDelay(attempt int, serverHint time.Duration) time.Duration {
	if attempt > 20 {
		attempt = 20 // 50ms<<20 is already past any sane ceiling
	}
	ceil := c.backoff << attempt
	if ceil <= 0 || ceil > maxBackoff {
		ceil = maxBackoff
	}
	d := time.Duration(c.jitter() * float64(ceil))
	if serverHint > 0 {
		return serverHint + d
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil). Retryable responses (see retryableAPIError) are
// re-attempted per the client's retry policy; body must then be
// re-sendable, which is why callers pass raw bytes.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	_, err := c.doHdr(ctx, method, path, body, out)
	return err
}

// doHdr is do, additionally returning the response headers of the final
// (successful) attempt — SubmitBatch reads Retry-After off a 200 batch
// response carrying retryable per-spec rejections.
func (c *Client) doHdr(ctx context.Context, method, path string, body []byte, out any) (http.Header, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base.String()+path, rd)
		if err != nil {
			return nil, fmt.Errorf("psclient: build request: %v", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.clientID != "" {
			req.Header.Set("X-Client-ID", c.clientID)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("psclient: %s %s: %w", method, path, err)
		}
		apiErr := checkStatus(resp)
		if apiErr == nil {
			err := decodeBody(resp, out)
			resp.Body.Close()
			return resp.Header, err
		}
		resp.Body.Close()
		if !retryableAPIError(apiErr) || attempt >= c.retries {
			return nil, apiErr
		}
		// Backpressure or a transient fault: wait (honoring the server's
		// Retry-After, with full jitter either way) and retry.
		if err := c.sleep(ctx, c.retryDelay(attempt, apiErr.RetryAfter)); err != nil {
			return nil, err
		}
	}
}

// retryableAPIError reports whether a response is worth re-attempting:
// 429 (backpressure — the server asked us to come back later) and the
// transient gateway/availability statuses 502/503/504, except when the
// code says the server is going away for good (draining or its engine
// stopped).
func retryableAPIError(e *APIError) bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests:
		return true
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return e.Code != wire.CodeServerClosing && e.Code != wire.CodeEngineStopped
	}
	return false
}

// checkStatus converts a non-2xx response into an *APIError.
func checkStatus(resp *http.Response) *APIError {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	msg := resp.Status
	var eb wire.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil && eb.Error != "" {
		msg = eb.Error
	}
	return &APIError{
		StatusCode: resp.StatusCode, Message: msg, Code: eb.Code,
		RetryAfter: parseRetryAfter(resp.Header),
	}
}

// parseRetryAfter reads an integer-seconds Retry-After header; zero when
// absent or unparseable (the HTTP-date form is not worth supporting —
// our server always sends seconds).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func decodeBody(resp *http.Response, out any) error {
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("psclient: decode response: %v", err)
	}
	return nil
}

// Query is a handle on a submitted query.
type Query struct {
	// ID is the server-side query identifier (server-assigned when the
	// spec's ID was empty).
	ID string
	// Kind is the submitted spec's kind.
	Kind ps.QueryKind

	c *Client
}

// Submit validates and submits a query spec, returning a handle carrying
// the (possibly server-assigned) query ID. 429 responses are retried per
// the client's retry policy.
func (c *Client) Submit(ctx context.Context, spec ps.Spec) (*Query, error) {
	if spec == nil {
		return nil, errors.New("psclient: nil query spec")
	}
	body, err := wire.MarshalSpec(spec)
	if err != nil {
		return nil, err
	}
	var ack wire.SubmitAck
	if err := c.do(ctx, http.MethodPost, "/query", body, &ack); err != nil {
		return nil, err
	}
	return &Query{ID: ack.ID, Kind: spec.Kind(), c: c}, nil
}

// SubmitBatch submits up to wire.MaxBatch specs in one POST
// /queries:batch request. The batch as a whole is retried on 429; and
// because a 200 response can still carry per-spec overload rejections
// (queue_full, shed), those entries are re-submitted — only them — in
// follow-up batches up to the client's retry budget, honoring the
// response's Retry-After between rounds. Each spec is accepted or
// rejected independently: the returned verdicts are index-aligned with
// specs, rejected entries carry the server's stable error code, and
// BatchResult.Err() yields an error satisfying errors.Is against the
// matching ps sentinel (e.g. ps.ErrQueueFull for entries still shed
// after the last round). The error is non-nil only when the batch
// itself failed (bad request, transport).
func (c *Client) SubmitBatch(ctx context.Context, specs []ps.Spec) ([]wire.BatchResult, error) {
	if len(specs) == 0 {
		return nil, errors.New("psclient: empty batch")
	}
	envs := make([]wire.Envelope, 0, len(specs))
	for i, spec := range specs {
		if spec == nil {
			return nil, fmt.Errorf("psclient: nil spec at batch index %d", i)
		}
		env, err := wire.FromSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("psclient: batch index %d: %w", i, err)
		}
		envs = append(envs, env)
	}

	results := make([]wire.BatchResult, len(specs))
	pending := make([]int, len(specs)) // indices into specs still unresolved
	for i := range pending {
		pending[i] = i
	}
	for round := 0; ; round++ {
		sub := make([]wire.Envelope, 0, len(pending))
		for _, i := range pending {
			sub = append(sub, envs[i])
		}
		body, err := json.Marshal(wire.BatchRequest{V: wire.Version2, Queries: sub})
		if err != nil {
			return nil, err
		}
		var resp wire.BatchResponse
		hdr, err := c.doHdr(ctx, http.MethodPost, "/queries:batch", body, &resp)
		if err != nil {
			return nil, err
		}
		if len(resp.Results) != len(pending) {
			return nil, fmt.Errorf("psclient: batch returned %d verdicts for %d specs", len(resp.Results), len(pending))
		}
		var retry []int
		for j, res := range resp.Results {
			i := pending[j]
			results[i] = res
			if res.Status != "accepted" && wire.RetryableCode(res.Code) {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 || round >= c.retries {
			return results, nil
		}
		pending = retry
		if err := c.sleep(ctx, c.retryDelay(round, parseRetryAfter(hdr))); err != nil {
			return nil, err
		}
	}
}

// Get fetches a query's status and accumulated per-slot results.
func (c *Client) Get(ctx context.Context, id string) (*wire.QueryStatus, error) {
	var st wire.QueryStatus
	if err := c.do(ctx, http.MethodGet, "/query/"+url.PathEscape(id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel withdraws a pending or continuous query.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/query/"+url.PathEscape(id), nil, nil)
}

// Queries lists one page of the server's query registry, ordered by ID.
// limit <= 0 uses the server default.
func (c *Client) Queries(ctx context.Context, offset, limit int) (*wire.QueryList, error) {
	path := fmt.Sprintf("/queries?offset=%d", offset)
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var list wire.QueryList
	if err := c.do(ctx, http.MethodGet, path, nil, &list); err != nil {
		return nil, err
	}
	return &list, nil
}

// Metrics fetches the engine-wide metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*ps.EngineMetrics, error) {
	var m ps.EngineMetrics
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Healthz reports the server's liveness snapshot.
func (c *Client) Healthz(ctx context.Context) (*wire.Healthz, error) {
	var h wire.Healthz
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Status fetches the query's current status (see Client.Get).
func (q *Query) Status(ctx context.Context) (*wire.QueryStatus, error) {
	return q.c.Get(ctx, q.ID)
}

// Cancel withdraws the query (see Client.Cancel).
func (q *Query) Cancel(ctx context.Context) error {
	return q.c.Cancel(ctx, q.ID)
}

// Stream opens the query's server-pushed event stream (see
// Client.Stream).
func (q *Query) Stream(opts ...StreamOption) *Stream {
	return q.c.Stream(q.ID, opts...)
}
