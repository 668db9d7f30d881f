package arbodsclient

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSolveRefusesStream pins that Solve fails a Stream request before
// any attempt: the NDJSON answer is not one envelope it could decode.
func TestSolveRefusesStream(t *testing.T) {
	var hit atomic.Bool
	ts := scripted(t, func(w http.ResponseWriter, r *http.Request) { hit.Store(true) })
	c := mustClient(t, Config{Endpoints: []string{ts.URL}})
	_, err := c.Solve(context.Background(), SolveRequest{Graph: "spec:path:n=4", Stream: true})
	if err == nil || !strings.Contains(err.Error(), "Stream") {
		t.Fatalf("streamed solve: err = %v, want a Stream refusal", err)
	}
	if hit.Load() {
		t.Fatal("a refused Stream request still reached the server")
	}
}
