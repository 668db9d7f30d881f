package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestClientDisconnectWhileQueued is the white-box cancellation test: it
// starves the pool by checking the only Runner out directly, so an HTTP
// solve deterministically parks in GetContext — then the client's context
// dies, and the handler must abandon the wait, record the cancellation,
// and leave the slot healthy. The follow-up streamed solve (streams
// bypass the solve cache, forcing a real engine run) must return the
// byte-identical receipt a pre-starvation run produced.
func TestClientDisconnectWhileQueued(t *testing.T) {
	s, err := New(Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	solve := func(ctx context.Context, req SolveRequest) (*http.Response, []byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			return resp, nil, err
		}
		return resp, out.Bytes(), nil
	}

	// Reference answer before anything goes wrong.
	ref := SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 9}
	resp, body, err := solve(context.Background(), ref)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reference solve: %v status=%v %s", err, resp, body)
	}
	var refOut struct {
		Receipt json.RawMessage `json:"receipt"`
	}
	if err := json.Unmarshal(body, &refOut); err != nil {
		t.Fatal(err)
	}

	// Starve the pool and park a request on the checkout queue. Its client
	// context dies 30ms in; the handler must notice and bail out.
	held := s.pool.Get()
	// A failure below must still put the Runner back, or Close waits on it
	// until the test binary times out.
	release := sync.OnceFunc(func() { s.pool.Put(held) })
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	// It differs from the reference in ε, a parameter thm1.1 reads, so the
	// solve cache cannot answer it before it queues.
	if _, _, err := solve(ctx, SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Eps: 0.35, Seed: 9}); err == nil {
		t.Fatal("queued solve finished despite a starved pool and a dead client")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never recorded the canceled checkout")
		}
		time.Sleep(time.Millisecond)
	}
	release()

	// The slot must serve again, and an engine rerun of the reference
	// request (streamed, so the solve cache cannot answer) must be
	// byte-identical.
	req := ref
	req.Stream = true
	resp, body, err = solve(context.Background(), req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel solve: %v status=%v", err, resp)
	}
	var final struct {
		Result *struct {
			Receipt json.RawMessage `json:"receipt"`
		} `json:"result"`
	}
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if bytes.Contains(line, []byte(`"result"`)) {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatalf("bad result line %s: %v", line, err)
			}
		}
	}
	if final.Result == nil {
		t.Fatalf("stream ended without a result line:\n%s", body)
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, refOut.Receipt); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, final.Result.Receipt); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("post-cancel engine rerun deviates:\n%s\nvs\n%s", want.String(), got.String())
	}
}
