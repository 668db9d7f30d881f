package arbodsclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arbods"
	"arbods/internal/faultinject"
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

// snapshot reports the breaker's current state.
func (b *breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
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

func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(2, 30*time.Millisecond)
	if !b.allow() || b.snapshot() != breakerClosed {
		t.Fatal("breaker must start closed")
	}
	b.record(false)
	if b.snapshot() != breakerClosed {
		t.Fatal("opened before threshold")
	}
	if changed, open := b.record(false); !changed || !open {
		t.Fatal("threshold failure must open the breaker")
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	time.Sleep(35 * time.Millisecond)
	if !b.allow() || b.snapshot() != breakerHalfOpen {
		t.Fatal("cooldown elapsed: one half-open probe must be admitted")
	}
	// A failed probe re-opens immediately (no threshold accumulation).
	if changed, open := b.record(false); !changed || !open {
		t.Fatal("failed half-open probe must re-open")
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted a request")
	}
	time.Sleep(35 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second cooldown elapsed: probe must be admitted")
	}
	// allow() already moved the verdict to "not open" at half-open, so
	// the close is not a verdict change — just the state settling.
	if _, open := b.record(true); open {
		t.Fatal("successful probe must close the breaker")
	}
	if b.snapshot() != breakerClosed {
		t.Fatal("breaker not closed after successful probe")
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

	// A proxy that corrupts the dominating set must be caught by the
	// client-side re-proof even though the receipt itself is untouched.
	tamper := scripted(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			var tampered SolveResponse
			blob, _ := json.Marshal(good)
			json.Unmarshal(blob, &tampered)
			tampered.ReceiptBytes = good.ReceiptBytes
			tampered.DS = append([]int(nil), good.DS[1:]...) // drop one dominator
			json.NewEncoder(w).Encode(tampered)
			return
		}
		// Pass graph downloads through to the real server.
		resp, err := http.Get(url + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
		return
	})
	_ = tamper
	c := mustClient(t, Config{Endpoints: []string{tamper.URL}, VerifyReceipts: true})
	_, err = c.Solve(context.Background(), SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 2, IncludeDS: true})
	if err == nil || !strings.Contains(err.Error(), "receipt verification failed") {
		t.Fatalf("tampered answer accepted: err = %v", err)
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
