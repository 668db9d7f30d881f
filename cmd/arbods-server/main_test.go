package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"arbods"
	"arbods/internal/gen"
	"arbods/internal/server"
)

// TestDaemonRoundTrip boots the real daemon on an ephemeral port, drives
// an upload → solve → receipt round trip over HTTP, and shuts it down
// gracefully — the whole binary lifecycle, not just the handler.
func TestDaemonRoundTrip(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet"}, stop, ready)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start listening")
	}

	// Upload a 40-node star (α=1) in the text format.
	var buf bytes.Buffer
	if err := arbods.EncodeGraph(&buf, gen.Star(40).G); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/graphs", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !info.New || info.Nodes != 40 {
		t.Fatalf("upload: status %d, info %+v", resp.StatusCode, info)
	}

	// Solve twice: the second request must hit the CSR cache and return
	// the same receipt.
	var receipts [2]json.RawMessage
	for i := range receipts {
		req, _ := json.Marshal(server.SolveRequest{
			Graph: info.ID, Algorithm: "thm1.1", Alpha: 1, Seed: 7, IncludeDS: true,
		})
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			CacheHit bool            `json:"cacheHit"`
			DS       []int           `json:"ds"`
			Receipt  json.RawMessage `json:"receipt"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
		if !out.CacheHit {
			t.Fatalf("solve %d: expected cache hit on uploaded graph", i)
		}
		var rec arbods.Receipt
		if err := json.Unmarshal(out.Receipt, &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.OK || rec.SetSize != len(out.DS) || rec.SetSize == 0 {
			t.Fatalf("solve %d: receipt not OK or inconsistent: %+v ds=%d", i, rec, len(out.DS))
		}
		receipts[i] = out.Receipt
	}
	if !bytes.Equal(receipts[0], receipts[1]) {
		t.Fatalf("repeat request receipts differ:\n%s\n%s", receipts[0], receipts[1])
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestSlowUploadDisconnected starts the daemon with a small upload cap and
// sends the headers and first kilobyte of an upload that declares more,
// then stalls. The daemon must drop the connection once the read deadline
// derived from the cap has passed, instead of holding it open.
func TestSlowUploadDisconnected(t *testing.T) {
	const maxUpload = 64 << 10
	stop := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet", "-max-upload", strconv.Itoa(maxUpload)}, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start listening")
	}
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	deadline := readTimeout(maxUpload)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/graphs HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n", addr, maxUpload)
	if _, err := conn.Write(bytes.Repeat([]byte("#\n"), 512)); err != nil {
		t.Fatal(err)
	}
	// The stalled request may get an error response before the close;
	// either way the connection must end within the deadline.
	conn.SetReadDeadline(start.Add(deadline + 2*time.Second))
	_, err = io.Copy(io.Discard, conn)
	if elapsed := time.Since(start); err != nil || elapsed < deadline-time.Second/2 {
		t.Fatalf("stalled upload: connection ended after %v with %v, want EOF at the %v read deadline", elapsed, err, deadline)
	}
}
