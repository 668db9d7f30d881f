package arbodsclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	neturl "net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arbods"
	"arbods/internal/api"
	"arbods/internal/faultinject"
	"arbods/internal/graph"
	"arbods/internal/server"
)

// okSolveBody is a minimal well-formed solve answer for scripted
// handlers that never run a real solve.
const okSolveBody = `{"graph":{"id":"sha256:test","nodes":1,"edges":0,"alpha":1},"cacheHit":true,"seed":0,"receipt":{"algorithm":"thm1.1","nodes":1,"edges":0,"setSize":1,"setWeight":1,"packingSum":1,"rounds":1,"messages":0,"totalBits":0,"checks":[],"ok":true}}`

func scripted(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

func mustClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	cfg := Config{
		Endpoints:   []string{"http://x:1"},
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Seed:        42,
	}
	a, b := mustClient(t, cfg), mustClient(t, cfg)
	for attempt := 1; attempt <= 12; attempt++ {
		ceil := cfg.BaseBackoff << uint(attempt-1)
		if ceil > cfg.MaxBackoff || ceil <= 0 {
			ceil = cfg.MaxBackoff
		}
		d := a.backoff(attempt)
		if d < 0 || d >= ceil {
			t.Fatalf("backoff(%d) = %v outside [0, %v)", attempt, d, ceil)
		}
		if d2 := b.backoff(attempt); d2 != d {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", attempt, d, d2)
		}
	}
	// Past the cap every draw stays under MaxBackoff — the "capped" half
	// of capped exponential backoff.
	for i := 0; i < 100; i++ {
		if d := a.backoff(30); d >= cfg.MaxBackoff {
			t.Fatalf("capped backoff draw %v >= %v", d, cfg.MaxBackoff)
		}
	}
}

func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"busy","code":"at_capacity"}`)
			return
		}
		fmt.Fprint(w, okSolveBody)
	})
	c := mustClient(t, Config{
		Endpoints:     []string{ts.URL},
		BaseBackoff:   time.Nanosecond, // jitter contributes ~nothing…
		MaxBackoff:    2 * time.Nanosecond,
		RetryAfterCap: 300 * time.Millisecond, // …so the wait is the (clamped) hint
	})
	start := time.Now()
	resp, err := c.Solve(context.Background(), SolveRequest{Graph: "sha256:test"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", resp.Attempts)
	}
	// The server said 1s; the cap clamped it to 300ms. Waiting at least
	// the clamp proves the hint was honored; finishing well under the raw
	// 1s proves the clamp was applied.
	if elapsed < 300*time.Millisecond {
		t.Fatalf("elapsed %v — Retry-After hint not honored", elapsed)
	}
	if elapsed > 900*time.Millisecond {
		t.Fatalf("elapsed %v — RetryAfterCap not applied", elapsed)
	}
}

// remaining reports the budget's current balance.
func (b *retryBudget) remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
	})
	c := mustClient(t, Config{
		Endpoints:        []string{ts.URL},
		MaxAttempts:      20,
		RetryBudget:      2,
		BaseBackoff:      time.Nanosecond,
		MaxBackoff:       time.Nanosecond,
		BreakerThreshold: 100, // keep the breaker out of this test
	})
	_, err := c.Solve(context.Background(), SolveRequest{Graph: "sha256:test"})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// First attempt is free; the budget paid for exactly 2 retries.
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 + 2 budgeted retries)", n)
	}
	// Successes refund: after one OK the budget allows another retry.
	var ok atomic.Bool
	ts2 := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		if ok.Load() {
			fmt.Fprint(w, okSolveBody)
			return
		}
		http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
	})
	c2 := mustClient(t, Config{
		Endpoints:        []string{ts2.URL},
		MaxAttempts:      4,
		RetryBudget:      1,
		BaseBackoff:      time.Nanosecond,
		MaxBackoff:       time.Nanosecond,
		BreakerThreshold: 100,
	})
	ok.Store(true)
	if _, err := c2.Solve(context.Background(), SolveRequest{Graph: "sha256:test"}); err != nil {
		t.Fatal(err)
	}
	if got := c2.budget.remaining(); got != 1 {
		t.Fatalf("budget after refunded success = %v, want back at cap 1", got)
	}
}

func TestBreakerShieldsDeadEndpoint(t *testing.T) {
	var deadCalls atomic.Int64
	dead := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		deadCalls.Add(1)
		http.Error(w, `{"error":"dying","code":"internal"}`, http.StatusInternalServerError)
	})
	live := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okSolveBody)
	})
	c := mustClient(t, Config{
		Endpoints:        []string{dead.URL, live.URL},
		BaseBackoff:      time.Nanosecond,
		MaxBackoff:       time.Nanosecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // never half-opens within the test
	})
	for i := 0; i < 5; i++ {
		if _, err := c.Solve(context.Background(), SolveRequest{Graph: "sha256:test"}); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	// The first solve's first attempt tripped the breaker; every request
	// after that skipped the dead endpoint entirely.
	if n := deadCalls.Load(); n != 1 {
		t.Fatalf("dead endpoint saw %d requests, want exactly 1", n)
	}
}

func TestTerminalErrorsDoNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such algorithm","code":"bad_request"}`, http.StatusBadRequest)
	})
	c := mustClient(t, Config{Endpoints: []string{ts.URL}, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond})
	_, err := c.Solve(context.Background(), SolveRequest{Graph: "sha256:test", Algorithm: "nope"})
	var api *APIError
	if !errors.As(err, &api) || api.Status != http.StatusBadRequest || api.Code != "bad_request" {
		t.Fatalf("err = %v, want terminal *APIError 400 bad_request", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("terminal 400 retried: %d requests", n)
	}
}

// TestClientOutcomes pins the one classification Solve, Upload and
// Graph share. Endpoint A answers its status once (0: it drops the
// connection) with a Retry-After hint, endpoint B answers 200, and every
// call must end the same way: a transport error or a 500 opens A's
// breaker (threshold 1) and retries on B, 429 and 503 wait out the hint
// and retry without opening it, 404 moves on to B, and 400 is terminal.
func TestClientOutcomes(t *testing.T) {
	g := arbods.Grid(3, 3).G
	blob := graph.AppendBinary(nil, g)
	id := graph.ID(g)
	answer := func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/solve":
			fmt.Fprint(w, okSolveBody)
		case r.Method == http.MethodPost:
			fmt.Fprintf(w, `{"id":%q,"nodes":9,"edges":12,"alpha":2}`, id)
		default:
			w.Header().Set("Content-Type", api.BinaryContentType)
			w.Write(blob)
		}
	}
	ctx := context.Background()
	calls := []struct {
		name string
		run  func(*Client) error
	}{
		{"Solve", func(c *Client) error { _, err := c.Solve(ctx, SolveRequest{Graph: id}); return err }},
		{"Upload", func(c *Client) error { _, err := c.Upload(ctx, g); return err }},
		{"Graph", func(c *Client) error { _, err := c.Graph(ctx, id); return err }},
	}
	type outcome struct {
		status       int // the terminal error's status, 0 on success
		aHits, bHits int64
		opened       bool // A's breaker opened
		waited       bool // the retry waited out the hint
	}
	const hint = 250 * time.Millisecond
	for _, tc := range []struct {
		status int
		want   outcome
	}{
		{0, outcome{aHits: 1, bHits: 1, opened: true}},
		{http.StatusInternalServerError, outcome{aHits: 1, bHits: 1, opened: true}},
		{http.StatusTooManyRequests, outcome{aHits: 1, bHits: 1, waited: true}},
		{http.StatusServiceUnavailable, outcome{aHits: 1, bHits: 1, waited: true}},
		{http.StatusNotFound, outcome{aHits: 1, bHits: 1}},
		{http.StatusBadRequest, outcome{status: http.StatusBadRequest, aHits: 1}},
	} {
		for _, call := range calls {
			var aHits, bHits atomic.Int64
			a := scripted(t, func(w http.ResponseWriter, r *http.Request) {
				aHits.Add(1)
				if tc.status == 0 {
					conn, _, _ := w.(http.Hijacker).Hijack()
					conn.Close()
					return
				}
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"scripted","code":"scripted"}`, tc.status)
			})
			b := scripted(t, func(w http.ResponseWriter, r *http.Request) {
				bHits.Add(1)
				answer(w, r)
			})
			var opened atomic.Bool
			c := mustClient(t, Config{
				Endpoints:        []string{a.URL, b.URL},
				BaseBackoff:      time.Nanosecond,
				MaxBackoff:       time.Nanosecond,
				RetryAfterCap:    hint,
				BreakerThreshold: 1,
				BreakerCooldown:  time.Hour,
				Logf: func(format string, args ...any) {
					if fmt.Sprintf(format, args...) == "event=breaker endpoint="+a.URL+" open=true" {
						opened.Store(true)
					}
				},
			})
			start := time.Now()
			err := call.run(c)
			got := outcome{aHits: aHits.Load(), bHits: bHits.Load(), opened: opened.Load(), waited: time.Since(start) >= hint}
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				got.status = apiErr.Status
			} else if err != nil {
				t.Errorf("%s after %d: %v", call.name, tc.status, err)
			}
			if got != tc.want {
				t.Errorf("%s after %d: got %+v, want %+v", call.name, tc.status, got, tc.want)
			}
		}
	}
}

// realServer spins a full in-process arbods-server.
func realServer(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Config{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

func TestUploadSolveVerify(t *testing.T) {
	url := realServer(t)
	c := mustClient(t, Config{Endpoints: []string{url}, VerifyReceipts: true})
	g := arbods.Grid(6, 6).G
	info, err := c.Upload(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !info.New || !strings.HasPrefix(info.ID, "sha256:") {
		t.Fatalf("upload info = %+v", info)
	}
	// IncludeDS triggers the full verification: graph download over the
	// hash-checked binary wire, then domination re-proved locally.
	resp, err := c.Solve(context.Background(), SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 9, IncludeDS: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Receipt == nil || !resp.Receipt.OK || len(resp.DS) == 0 {
		t.Fatalf("verified solve came back thin: %+v", resp)
	}
	if resp.Attempts != 1 || resp.Endpoint != url {
		t.Fatalf("attempt accounting = %d via %q", resp.Attempts, resp.Endpoint)
	}
	// The verified graph is cached: a second Graph call must not refetch.
	g1, err := c.Graph(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := c.Graph(context.Background(), info.ID)
	if g1 != g2 {
		t.Fatal("graph cache miss on repeat fetch")
	}
}

func TestVerifyRejectsTamperedAnswer(t *testing.T) {
	url := realServer(t)
	honest := mustClient(t, Config{Endpoints: []string{url}})
	g := arbods.Grid(5, 5).G
	info, err := honest.Upload(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	good, err := honest.Solve(context.Background(), SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 2, IncludeDS: true})
	if err != nil {
		t.Fatal(err)
	}

	// A proxy that swaps one dominator for a non-member must be caught by
	// the client-side re-proof even though the receipt itself is
	// untouched. On the unit-weight grid the swap keeps the set's size and
	// weight, so only the domination check can see it.
	tamperedDS := swapLeavingUndominated(t, g, good.DS)
	target, err := neturl.Parse(url)
	if err != nil {
		t.Fatal(err)
	}
	forward := httputil.NewSingleHostReverseProxy(target)
	tamper := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			var tampered SolveResponse
			blob, _ := json.Marshal(good)
			json.Unmarshal(blob, &tampered)
			tampered.ReceiptBytes = good.ReceiptBytes
			tampered.DS = tamperedDS
			json.NewEncoder(w).Encode(tampered)
			return
		}
		// Graph downloads reach the real server with their Accept header,
		// so the client gets the binary wire and re-proves the set.
		forward.ServeHTTP(w, r)
	})
	c := mustClient(t, Config{Endpoints: []string{tamper.URL}, VerifyReceipts: true})
	_, err = c.Solve(context.Background(), SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 2, IncludeDS: true})
	if err == nil || !strings.Contains(err.Error(), "receipt verification failed") || !strings.Contains(err.Error(), "undominated") {
		t.Fatalf("tampered answer not refused by the domination check: err = %v", err)
	}
}

// swapLeavingUndominated returns ds with one member replaced by a
// non-member such that some node of g is left undominated.
func swapLeavingUndominated(t *testing.T, g *arbods.Graph, ds []int) []int {
	t.Helper()
	inSet := make([]bool, g.N())
	for _, v := range ds {
		inSet[v] = true
	}
	for i, d := range ds {
		for u := range inSet {
			if inSet[u] {
				continue
			}
			inSet[d], inSet[u] = false, true
			undominated := arbods.IsDominatingSet(g, inSet)
			inSet[d], inSet[u] = true, false
			if len(undominated) > 0 {
				swapped := slices.Clone(ds)
				swapped[i] = u
				return swapped
			}
		}
	}
	t.Fatal("every swap keeps the set dominating")
	return nil
}

// maxResponseBytes is the cap a graph download reads under.
const maxResponseBytes = api.MaxAnswerBytes

// TestGraphDownloadCapped: a graph download reads at most
// maxResponseBytes. An endpoint that streams a longer body of the binary
// type fails the fetch on its declared length, and the client hangs up
// instead of buffering the body. (A body that declares no length is cut
// at the cap by the same read; streaming one costs the test 64 MiB.)
func TestGraphDownloadCapped(t *testing.T) {
	const streamed = 2 * maxResponseBytes
	wrote := make(chan int64, 1)
	ep := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.BinaryContentType)
		w.Header().Set("Content-Length", strconv.Itoa(streamed))
		chunk := make([]byte, 1<<20)
		var n int64
		for n < streamed {
			k, err := w.Write(chunk)
			n += int64(k)
			if err != nil {
				break
			}
		}
		wrote <- n
	})
	c := mustClient(t, Config{Endpoints: []string{ep.URL}, MaxAttempts: 1})
	_, err := c.Graph(context.Background(), "sha256:00")
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-cap download: err = %v, want a refusal naming the cap", err)
	}
	if n := <-wrote; n >= streamed {
		t.Fatalf("the client read all %d streamed bytes", n)
	}
}

// TestFlakyPeerSweepIdentity is the client half of the chaos acceptance:
// one of two replicas fails every other request at the transport seam,
// yet a sweep through the retrying client completes 100% and every
// receipt is byte-identical to the same sweep against a single healthy
// server.
func TestFlakyPeerSweepIdentity(t *testing.T) {
	sweep := []SolveRequest{
		{Algorithm: "thm1.1", Seed: 1, IncludeDS: true},
		{Algorithm: "thm1.1", Seed: 2, IncludeDS: true},
		{Algorithm: "thm3.1", Seed: 1, IncludeDS: true},
		{Algorithm: "thm1.2", Seed: 4, IncludeDS: true},
		{Algorithm: "lrg", Seed: 7, IncludeDS: true},
		{Algorithm: "lw", IncludeDS: true},
	}
	g := arbods.Grid(8, 5).G

	// Baseline: one healthy server, plain client.
	soloURL := realServer(t)
	solo := mustClient(t, Config{Endpoints: []string{soloURL}})
	soloInfo, err := solo.Upload(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([][]byte, len(sweep))
	for i, req := range sweep {
		req.Graph = soloInfo.ID
		resp, err := solo.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("baseline sweep[%d]: %v", i, err)
		}
		baseline[i] = resp.ReceiptBytes
	}

	// Flaky pair: replica A drops every other request at the wire.
	urlA, urlB := realServer(t), realServer(t)
	reg := faultinject.New(11)
	hostA := strings.TrimPrefix(urlA, "http://")
	for i := 0; i < 64; i++ {
		reg.Arm("peer."+hostA, faultinject.Fault{Round: -1, After: 2 * i, Times: 1, Err: faultinject.ErrInjected})
	}
	c := mustClient(t, Config{
		Endpoints:       []string{urlA, urlB},
		HTTPClient:      &http.Client{Transport: &faultinject.Transport{Reg: reg}},
		VerifyReceipts:  true,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      4 * time.Millisecond,
		BreakerCooldown: 20 * time.Millisecond,
		Seed:            11,
	})
	if _, err := c.Upload(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	// Both replicas need the graph (standalone servers don't replicate).
	direct := mustClient(t, Config{Endpoints: []string{urlB}})
	if _, err := direct.Upload(context.Background(), g); err != nil {
		t.Fatal(err)
	}

	for i, req := range sweep {
		req.Graph = soloInfo.ID
		resp, err := c.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("flaky sweep[%d]: %v", i, err)
		}
		if !bytes.Equal(resp.ReceiptBytes, baseline[i]) {
			t.Fatalf("sweep[%d] receipt differs from healthy baseline:\n%s\nvs\n%s",
				i, resp.ReceiptBytes, baseline[i])
		}
	}
	if reg.Hits("peer."+hostA) == 0 {
		t.Fatal("flaky seam never exercised — the test proved nothing")
	}
}
