// Package arbodsclient is the resilient Go client for arbods-server: it
// spreads requests over multiple endpoints, retries transient failures
// with capped exponential backoff and full jitter, honors the server's
// adaptive Retry-After hints, spends from a retry budget so client
// retries cannot amplify a server outage, and trips a per-endpoint
// circuit breaker (closed → open → half-open) so a dead daemon costs one
// probe per cooldown instead of one timeout per request.
//
// The library's determinism is the client's verification lever: a solve's
// receipt is byte-identical for a fixed (graph, algorithm, params, seed)
// no matter which daemon — original, replica, or failover — executed it.
// With VerifyReceipts set, every answer is re-checked locally: the
// receipt's own checks must pass, its arithmetic must be consistent, and
// when the response carries the dominating set (IncludeDS), the client
// downloads the graph over the ARBCSR01 binary wire, checks that its ID —
// the sha256 of its ARBCSR01 bytes, computed by the same function the
// server uses — equals the graph id, and re-proves domination, set size,
// and set weight from scratch — answers are verified, not trusted.
// Solve reads one JSON answer, so it refuses Stream requests.
package arbodsclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"arbods"
	"arbods/internal/api"
	"arbods/internal/graph"
)

// Config configures a Client. Every knob has a production-safe default;
// tests shrink the time constants.
type Config struct {
	// Endpoints are the server base URLs (e.g. "http://10.0.0.1:8080"),
	// at least one. Order sets the preference: attempt k starts at
	// endpoint k mod len, so retries rotate through the set.
	Endpoints []string
	// HTTPClient carries every request (nil = a default client). Chaos
	// tests wire faultinject.Transport here to break specific links.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request across all endpoints
	// (default 8; the first try counts).
	MaxAttempts int
	// AttemptTimeout bounds one attempt end to end (default 30s) — the
	// guard that turns a blackholed link into a retry instead of a hang.
	AttemptTimeout time.Duration
	// BaseBackoff and MaxBackoff shape the retry sleep: attempt k waits
	// a uniform random duration in [0, min(MaxBackoff, BaseBackoff·2^k))
	// — capped exponential backoff with full jitter (defaults 50ms, 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryAfterCap clamps how long a server's Retry-After hint is
	// honored (default 30s, matching the server's own clamp).
	RetryAfterCap time.Duration
	// RetryBudget is the token bucket that stops retry amplification:
	// each retry spends one token, each success refunds half a token, and
	// a drained bucket fails fast with the last error instead of piling
	// more load on a struggling cluster (default 10 tokens).
	RetryBudget float64
	// BreakerThreshold consecutive endpoint failures open that endpoint's
	// breaker (default 5); BreakerCooldown is how long it stays open
	// before one half-open probe is allowed through (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// VerifyReceipts re-checks every solve answer locally; see the
	// package comment. Verification failures are terminal, not retried —
	// a wrong answer from a deterministic server will be wrong again.
	VerifyReceipts bool
	// Seed drives the jitter stream (0 = 1), so a test run backs off
	// identically every time.
	Seed uint64
	// Logf receives one line per retry and breaker transition (nil =
	// silent).
	Logf func(format string, args ...any)
}

// Client is a multi-endpoint arbods-server client; safe for concurrent
// use.
type Client struct {
	cfg       Config
	endpoints []*endpoint
	hc        *http.Client
	budget    *retryBudget
	jitter    *jitterSource

	mu     sync.Mutex
	graphs map[string]*arbods.Graph // verified downloads, by sha256: id
	next   uint64                   // round-robin start for attempt 0
}

// New builds a Client from cfg.
func New(cfg Config) (*Client, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("arbodsclient: at least one endpoint required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 30 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.RetryAfterCap <= 0 {
		cfg.RetryAfterCap = 30 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 10
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	c := &Client{
		cfg:    cfg,
		hc:     cfg.HTTPClient,
		budget: newRetryBudget(cfg.RetryBudget, 0.5),
		jitter: newJitterSource(cfg.Seed),
		graphs: make(map[string]*arbods.Graph),
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	for _, e := range cfg.Endpoints {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		c.endpoints = append(c.endpoints, &endpoint{
			base:    e,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	if len(c.endpoints) == 0 {
		return nil, fmt.Errorf("arbodsclient: at least one endpoint required")
	}
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// endpoint is one server base URL plus its breaker.
type endpoint struct {
	base    string
	breaker *breaker
}

// SolveRequest and GraphInfo are the daemon's own declarations of the
// POST /v1/solve body and the graph metadata; see the README "Serving"
// section for field semantics.
type (
	SolveRequest = api.SolveRequest
	GraphInfo    = api.GraphInfo
)

// SolveResponse is one verified answer: the server's envelope, whose
// ReceiptBytes preserves the receipt exactly as the server sent it (so
// callers can compare replicas byte for byte), plus Receipt, its decoded
// form.
type SolveResponse struct {
	api.SolveResponse
	Receipt *arbods.Receipt `json:"-"`

	// Endpoint is the base URL that answered; Attempts counts tries,
	// first included.
	Endpoint string `json:"-"`
	Attempts int    `json:"-"`
}

// APIError is a server error envelope with its HTTP status; terminal
// (non-retryable) failures surface as one of these.
type APIError struct {
	Status   int
	Code     string
	Message  string
	Endpoint string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %d %s: %s", e.Endpoint, e.Status, e.Code, e.Message)
}

// ErrBudgetExhausted wraps the last attempt error when the retry budget
// drains; errors.Is finds it.
var ErrBudgetExhausted = errors.New("arbodsclient: retry budget exhausted")

// Solve runs one solve with retries, failover, and (when configured)
// receipt verification. It refuses Stream: a streamed answer is NDJSON
// round progress, which Solve cannot read as one envelope.
func (c *Client) Solve(ctx context.Context, req SolveRequest) (*SolveResponse, error) {
	if req.Stream {
		return nil, errors.New("arbodsclient: Stream is not supported by Solve")
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp *SolveResponse
	err = c.withRetries(ctx, func(ctx context.Context, ep *endpoint) (retryable bool, err error) {
		r, retryable, err := c.solveOnce(ctx, ep, body)
		if err != nil {
			return retryable, err
		}
		resp = r
		return false, nil
	}, &resp)
	if err != nil {
		return nil, err
	}
	if c.cfg.VerifyReceipts {
		if err := c.verifyResponse(ctx, resp); err != nil {
			return nil, fmt.Errorf("arbodsclient: receipt verification failed: %w", err)
		}
	}
	return resp, nil
}

// withRetries is the shared attempt loop: pick an endpoint the breaker
// allows, run op, and on a retryable failure spend budget, sleep the
// jittered backoff (or the server's Retry-After), and go again. attempts
// is written back onto the response via the pointer dance in Solve.
func (c *Client) withRetries(ctx context.Context, op func(context.Context, *endpoint) (bool, error), resp **SolveResponse) error {
	start := int(c.nextStart())
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.budget.spend() {
				return fmt.Errorf("%w after %d attempts: %v", ErrBudgetExhausted, attempt, lastErr)
			}
			if err := c.sleep(ctx, attempt, lastErr); err != nil {
				return err
			}
		}
		ep := c.pickEndpoint(start + attempt)
		if ep == nil {
			lastErr = fmt.Errorf("arbodsclient: every endpoint's circuit breaker is open")
			continue
		}
		attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		retryable, err := op(attemptCtx, ep)
		cancel()
		if err == nil {
			c.budget.refund()
			if resp != nil && *resp != nil {
				(*resp).Endpoint = ep.base
				(*resp).Attempts = attempt + 1
			}
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.logf("event=retry attempt=%d endpoint=%s err=%q", attempt+1, ep.base, err.Error())
	}
	return fmt.Errorf("arbodsclient: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

func (c *Client) nextStart() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.next
	c.next++
	return n
}

// pickEndpoint returns the first endpoint from the rotating start whose
// breaker admits a request, nil when every breaker is open and cooling.
func (c *Client) pickEndpoint(start int) *endpoint {
	n := len(c.endpoints)
	for i := 0; i < n; i++ {
		ep := c.endpoints[(start+i)%n]
		if ep.breaker.allow() {
			return ep
		}
	}
	return nil
}

// sleep waits the backoff for attempt, preferring the server's
// Retry-After hint when the last failure carried one. ctx cancels the
// wait.
func (c *Client) sleep(ctx context.Context, attempt int, lastErr error) error {
	d := c.backoff(attempt)
	var ra *retryAfterError
	if errors.As(lastErr, &ra) && ra.delay > 0 {
		d = ra.delay
		if d > c.cfg.RetryAfterCap {
			d = c.cfg.RetryAfterCap
		}
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff is the capped-exponential-full-jitter schedule: a uniform
// draw from [0, min(MaxBackoff, BaseBackoff·2^(attempt-1))).
func (c *Client) backoff(attempt int) time.Duration {
	ceil := c.cfg.BaseBackoff << uint(attempt-1)
	if ceil > c.cfg.MaxBackoff || ceil <= 0 {
		ceil = c.cfg.MaxBackoff
	}
	return c.jitter.uniform(ceil)
}

// retryAfterError marks a retryable server rejection that carried a
// Retry-After hint.
type retryAfterError struct {
	api   *APIError
	delay time.Duration
}

func (e *retryAfterError) Error() string { return e.api.Error() }
func (e *retryAfterError) Unwrap() error { return e.api }

// solveOnce runs one solve attempt against one endpoint and classifies
// the outcome: transport errors and 5xx feed the breaker and retry;
// 429/503 retry after the server's hint without blaming the endpoint
// (an overloaded daemon is alive); 404 tries the next endpoint (another
// replica may hold the graph); remaining 4xx are terminal.
func (c *Client) solveOnce(ctx context.Context, ep *endpoint, body []byte) (*SolveResponse, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		c.markBreaker(ep, false)
		return nil, true, fmt.Errorf("%s: %w", ep.base, err)
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		c.markBreaker(ep, false)
		return nil, true, fmt.Errorf("%s: read response: %w", ep.base, err)
	}
	if hresp.StatusCode == http.StatusOK {
		c.markBreaker(ep, true)
		var resp SolveResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return nil, false, fmt.Errorf("%s: decode response: %w", ep.base, err)
		}
		if len(resp.ReceiptBytes) > 0 {
			resp.Receipt = new(arbods.Receipt)
			if err := json.Unmarshal(resp.ReceiptBytes, resp.Receipt); err != nil {
				return nil, false, fmt.Errorf("%s: decode receipt: %w", ep.base, err)
			}
		}
		return &resp, false, nil
	}
	apiErr := &APIError{Status: hresp.StatusCode, Endpoint: ep.base}
	var envelope api.ErrorBody
	if json.Unmarshal(data, &envelope) == nil {
		apiErr.Code, apiErr.Message = envelope.Code, envelope.Error
	}
	switch {
	case hresp.StatusCode == http.StatusTooManyRequests || hresp.StatusCode == http.StatusServiceUnavailable:
		// The daemon answered: alive, just shedding. Honor its hint.
		c.markBreaker(ep, true)
		var delay time.Duration
		if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs > 0 {
			delay = time.Duration(secs) * time.Second
		}
		return nil, true, &retryAfterError{api: apiErr, delay: delay}
	case hresp.StatusCode >= 500:
		c.markBreaker(ep, false)
		return nil, true, apiErr
	case hresp.StatusCode == http.StatusNotFound:
		// Another replica may hold the graph; the endpoint is healthy.
		c.markBreaker(ep, true)
		return nil, true, apiErr
	default:
		c.markBreaker(ep, true)
		return nil, false, apiErr
	}
}

// markBreaker feeds one outcome to ep's breaker, logging transitions.
func (c *Client) markBreaker(ep *endpoint, ok bool) {
	if changed, open := ep.breaker.record(ok); changed {
		c.logf("event=breaker endpoint=%s open=%v", ep.base, open)
	}
}

// Upload sends g to the cluster over the ARBCSR01 binary wire and
// returns its content-hash id. Any daemon accepts an upload; the cluster
// replicates it to the graph's owners.
func (c *Client) Upload(ctx context.Context, g *arbods.Graph) (GraphInfo, error) {
	blob := graph.AppendBinary(nil, g)
	var info GraphInfo
	err := c.withRetries(ctx, func(ctx context.Context, ep *endpoint) (bool, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ep.base+"/v1/graphs", bytes.NewReader(blob))
		if err != nil {
			return false, err
		}
		hreq.Header.Set("Content-Type", api.BinaryContentType)
		hresp, err := c.hc.Do(hreq)
		if err != nil {
			c.markBreaker(ep, false)
			return true, fmt.Errorf("%s: %w", ep.base, err)
		}
		defer hresp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(hresp.Body, 1<<20))
		if err != nil {
			c.markBreaker(ep, false)
			return true, fmt.Errorf("%s: read response: %w", ep.base, err)
		}
		if hresp.StatusCode != http.StatusOK {
			retryable := hresp.StatusCode >= 500 || hresp.StatusCode == http.StatusTooManyRequests
			c.markBreaker(ep, hresp.StatusCode < 500)
			return retryable, &APIError{Status: hresp.StatusCode, Endpoint: ep.base, Message: string(data)}
		}
		c.markBreaker(ep, true)
		return false, json.Unmarshal(data, &info)
	}, nil)
	return info, err
}

// Graph downloads the identified graph over the binary wire, verifies
// its content hash against id, and caches it; VerifyReceipts rides this
// path to re-prove domination locally.
func (c *Client) Graph(ctx context.Context, id string) (*arbods.Graph, error) {
	c.mu.Lock()
	g, ok := c.graphs[id]
	c.mu.Unlock()
	if ok {
		return g, nil
	}
	err := c.withRetries(ctx, func(ctx context.Context, ep *endpoint) (bool, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.base+"/v1/graphs/"+id, nil)
		if err != nil {
			return false, err
		}
		hreq.Header.Set("Accept", api.BinaryContentType)
		hresp, err := c.hc.Do(hreq)
		if err != nil {
			c.markBreaker(ep, false)
			return true, fmt.Errorf("%s: %w", ep.base, err)
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(hresp.Body, 1<<20))
			c.markBreaker(ep, hresp.StatusCode < 500)
			// 404 is retryable here for the same reason as in solveOnce:
			// another replica may hold the graph.
			return hresp.StatusCode >= 500 || hresp.StatusCode == http.StatusNotFound,
				&APIError{Status: hresp.StatusCode, Code: "fetch_failed", Endpoint: ep.base, Message: "graph fetch"}
		}
		c.markBreaker(ep, true)
		decoded, err := arbods.DecodeGraphBinary(hresp.Body)
		if err != nil {
			return true, fmt.Errorf("%s: decode graph: %w", ep.base, err)
		}
		if got := graph.ID(decoded); got != id {
			// A corrupt or wrong blob from one replica must not poison
			// verification — try elsewhere.
			return true, fmt.Errorf("%s: graph hash mismatch: got %s want %s", ep.base, got, id)
		}
		g = decoded
		return false, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.graphs[id] = g
	c.mu.Unlock()
	return g, nil
}
