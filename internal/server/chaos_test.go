package server_test

// Chaos suite: deterministic fault injection (internal/faultinject)
// driven through Config.Faults. Every failure here is armed, not raced —
// a panic at an exact round, a snapshot write that fails on the exact
// upload, an admission that overflows on the exact request — so the
// suite pins the server's degraded behavior as precisely as the happy
// path's golden receipt pins its answers.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"arbods"
	"arbods/internal/faultinject"
	"arbods/internal/graph"
	"arbods/internal/server"
)

// uploadGraph posts g in the text format and returns the cached entry.
func uploadGraph(t *testing.T, base string, g *arbods.Graph) server.GraphInfo {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs", "text/plain", bytes.NewReader(encodeGraph(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	return info
}

// getJSON fetches url, decodes into out when non-nil, and returns the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// captureLog returns a Logf sink plus a reader over everything logged.
func captureLog() (func(string, ...any), func() string) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(&buf, format+"\n", args...)
		mu.Unlock()
	}
	read := func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
	return logf, read
}

// checkRetryAfter asserts the adaptive Retry-After hint: an integer
// second count inside the server's [1, 30] clamp. The exact value
// depends on live queue depth and latency history, so the assertion is
// the range, not a constant.
func checkRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After = %q, want integer seconds", ra)
	}
	if secs < 1 || secs > 30 {
		t.Fatalf("Retry-After = %d, want within [1, 30]", secs)
	}
}

// errBody decodes the uniform error envelope.
func errBody(t *testing.T, body []byte) (msg, code string) {
	t.Helper()
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error envelope: %v\n%s", err, body)
	}
	return eb.Error, eb.Code
}

// TestSolvePanicIsolation arms a proc panic at round 2 and requires the
// blast radius to be exactly one request: 500 with code proc_panic and a
// structured log record, the poisoned Runner replaced at checkin, and the
// very next identical request answered with the byte-identical receipt a
// fault-free server produces.
func TestSolvePanicIsolation(t *testing.T) {
	reg := faultinject.New(1)
	reg.Arm("congest.step", faultinject.Fault{Round: 2, Panic: "chaos: injected proc panic"})
	logf, logs := captureLog()
	_, ts := newTestServer(t, server.Config{PoolSize: 1, Faults: reg, Logf: logf})

	req := server.SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 7}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d: %s", resp.StatusCode, body)
	}
	msg, code := errBody(t, body)
	if code != "proc_panic" || !strings.Contains(msg, "round 2") {
		t.Fatalf("panicking solve: code %q, msg %q", code, msg)
	}
	if reg.Hits("congest.step") == 0 {
		t.Fatal("congest.step seam never reached")
	}

	// The Runner swap happens in the handler's deferred Put, which may
	// still be running when the client has its response — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for serverStats(t, ts.URL).RunnersReplaced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("poisoned Runner never replaced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := serverStats(t, ts.URL)
	if st.Panics != 1 || st.RunnersReplaced != 1 || st.Solves != 0 {
		t.Fatalf("stats after panic: panics=%d replaced=%d solves=%d", st.Panics, st.RunnersReplaced, st.Solves)
	}
	rec := logs()
	if !strings.Contains(rec, "event=proc_panic") || !strings.Contains(rec, "round=2") ||
		!strings.Contains(rec, "stack=") {
		t.Fatalf("missing structured panic record in:\n%s", rec)
	}

	// Recovery: the fault is spent, the replacement Runner serves, and the
	// answer matches a server that never saw a panic, byte for byte.
	_, ref := newTestServer(t, server.Config{PoolSize: 1})
	_, want, _ := solveRaw(t, ref.URL, req)
	_, got, _ := solveRaw(t, ts.URL, req)
	if !bytes.Equal(want.Receipt, got.Receipt) {
		t.Fatalf("post-panic receipt diverges from fault-free receipt:\n%s\nvs\n%s", got.Receipt, want.Receipt)
	}
}

// TestBuildPanicReleasesRef arms one panic in a graph build while four
// requests race on the cold reference, so the others wait on the build
// that panics. Every request it fails answers 500 with code build_panic
// and one structured log record, and the reference is released: the next
// request builds and solves instead of waiting on a build that will never
// finish. Each request carries a deadline, so a wedged reference fails
// the test instead of hanging it.
func TestBuildPanicReleasesRef(t *testing.T) {
	const panicMsg = "chaos: injected build panic"
	reg := faultinject.New(1)
	reg.Arm("server.build", faultinject.Fault{Round: -1, Delay: 100 * time.Millisecond, Panic: panicMsg})
	logf, logs := captureLog()
	_, ts := newTestServer(t, server.Config{PoolSize: 1, Faults: reg, Logf: logf})

	body, err := json.Marshal(server.SolveRequest{Graph: "spec:path:n=10", Algorithm: "thm1.1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	solve := func() answer {
		resp, err := client.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return answer{err: err}
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return answer{resp.StatusCode, out, err}
	}

	var (
		wg      sync.WaitGroup
		answers [4]answer
	)
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = solve()
		}()
	}
	wg.Wait()
	panicked, solved := 0, 0
	for i, a := range answers {
		switch {
		case a.err != nil:
			t.Fatalf("request %d: %v", i, a.err)
		case a.status == http.StatusInternalServerError:
			msg, code := errBody(t, a.body)
			if code != "build_panic" || !strings.Contains(msg, panicMsg) {
				t.Fatalf("request %d: code %q, msg %q", i, code, msg)
			}
			panicked++
		case a.status == http.StatusOK:
			solved++ // arrived after the panicking build had ended
		default:
			t.Fatalf("request %d: status %d: %s", i, a.status, a.body)
		}
	}
	rec := logs()
	if panicked == 0 {
		t.Fatalf("no request saw the panicking build; log:\n%s", rec)
	}
	if n := strings.Count(rec, "event=build_panic"); n != panicked || strings.Count(rec, panicMsg) != panicked {
		t.Fatalf("%d requests failed but %d build_panic records, want one each:\n%s", panicked, n, rec)
	}
	if !strings.Contains(rec, "stack=") {
		t.Fatalf("build panic record carries no stack:\n%s", rec)
	}

	if a := solve(); a.err != nil || a.status != http.StatusOK {
		t.Fatalf("solve after the panic: status %d, err %v: %s", a.status, a.err, a.body)
	}
	if st := serverStats(t, ts.URL); st.Builds != 1 || st.Solves != int64(solved+1) {
		t.Fatalf("stats after recovery: builds=%d solves=%d, want 1 and %d", st.Builds, st.Solves, solved+1)
	}
}

// TestSnapshotPersistRestart is the in-process half of the crash-safety
// story (cmd/arbods-server's crash test covers the SIGKILL half): a second
// server on the same DataDir serves the first server's upload from its
// snapshot — no re-upload, no builds, byte-identical receipt.
func TestSnapshotPersistRestart(t *testing.T) {
	dir := t.TempDir()
	g := arbods.Grid(12, 12).G
	_, ts1 := newTestServer(t, server.Config{DataDir: dir})
	info := uploadGraph(t, ts1.URL, g)
	if !info.New {
		t.Fatalf("first upload not new: %+v", info)
	}
	req := server.SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 11}
	_, out1, _ := solveRaw(t, ts1.URL, req)

	_, ts2 := newTestServer(t, server.Config{DataDir: dir})
	var meta server.GraphInfo
	if code := getJSON(t, ts2.URL+"/v1/graphs/"+info.ID, &meta); code != http.StatusOK {
		t.Fatalf("restored graph not served: status %d", code)
	}
	if meta.Nodes != info.Nodes || meta.Edges != info.Edges || meta.Alpha != info.Alpha {
		t.Fatalf("restored metadata diverges: %+v vs %+v", meta, info)
	}
	st := serverStats(t, ts2.URL)
	if st.SnapshotsLoaded != 1 || st.Builds != 0 || st.Graphs != 1 {
		t.Fatalf("restore stats: loaded=%d builds=%d graphs=%d", st.SnapshotsLoaded, st.Builds, st.Graphs)
	}
	_, out2, _ := solveRaw(t, ts2.URL, req)
	if !bytes.Equal(out1.Receipt, out2.Receipt) {
		t.Fatalf("receipt across restart diverges:\n%s\nvs\n%s", out1.Receipt, out2.Receipt)
	}
}

// TestSnapshotCorruptRecovery flips one byte in a snapshot blob between
// two server lifetimes. The restarted server must detect it (checksum),
// log it, drop it, refuse to serve the id — and heal completely when the
// graph is uploaded again.
func TestSnapshotCorruptRecovery(t *testing.T) {
	dir := t.TempDir()
	g := arbods.Grid(9, 9).G
	_, ts1 := newTestServer(t, server.Config{DataDir: dir})
	info := uploadGraph(t, ts1.URL, g)

	blob := filepath.Join(dir, "graphs", strings.TrimPrefix(info.ID, "sha256:")+".csr")
	data, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(blob, data, 0o644); err != nil {
		t.Fatal(err)
	}

	logf, logs := captureLog()
	_, ts2 := newTestServer(t, server.Config{DataDir: dir, Logf: logf})
	st := serverStats(t, ts2.URL)
	if st.SnapshotErrors < 1 || st.SnapshotsLoaded != 0 || st.Graphs != 0 {
		t.Fatalf("corrupt restore stats: errors=%d loaded=%d graphs=%d", st.SnapshotErrors, st.SnapshotsLoaded, st.Graphs)
	}
	if !strings.Contains(logs(), "event=snapshot_corrupt") {
		t.Fatalf("missing snapshot_corrupt record in:\n%s", logs())
	}
	if code := getJSON(t, ts2.URL+"/v1/graphs/"+info.ID, nil); code != http.StatusNotFound {
		t.Fatalf("corrupt graph served: status %d", code)
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not removed: %v", err)
	}

	// Re-upload rebuilds both the cache entry and the snapshot.
	re := uploadGraph(t, ts2.URL, g)
	if !re.New || re.ID != info.ID {
		t.Fatalf("re-upload after corruption: %+v", re)
	}
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("snapshot not rewritten: %v", err)
	}
}

// TestSnapshotTextHashUpgrade restarts on a data dir written while graph
// IDs hashed the text encoding: a version-1 index.json (CRC intact) and a
// valid blob named by the old ID. The old ID must never be served — the
// index is rejected, the rescanned blob fails its content-hash check and
// goes out as corrupt — and the re-uploaded graph serves, durably, under
// its new ID.
func TestSnapshotTextHashUpgrade(t *testing.T) {
	dir := t.TempDir()
	g := arbods.Grid(6, 6).G
	sum := sha256.Sum256(encodeGraph(t, g))
	oldHex := hex.EncodeToString(sum[:])
	oldID := "sha256:" + oldHex
	blob := filepath.Join(dir, "graphs", oldHex+".csr")
	var bin bytes.Buffer
	if err := arbods.EncodeGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	type row struct {
		ID    string `json:"id"`
		Degen int    `json:"degen,omitempty"`
	}
	rows, err := json.Marshal([]row{{ID: oldID, Degen: 2}})
	if err != nil {
		t.Fatal(err)
	}
	index, err := json.Marshal(map[string]any{
		"version": 1,
		"crc":     crc32.Checksum(rows, crc32.MakeTable(crc32.Castagnoli)),
		"entries": json.RawMessage(rows),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(blob), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blob, bin.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), index, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, server.Config{DataDir: dir})
	if st := serverStats(t, ts.URL); st.SnapshotsLoaded != 0 || st.Graphs != 0 {
		t.Fatalf("old data dir restored: loaded=%d graphs=%d", st.SnapshotsLoaded, st.Graphs)
	}
	if code := getJSON(t, ts.URL+"/v1/graphs/"+oldID, nil); code != http.StatusNotFound {
		t.Fatalf("old id served: status %d", code)
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatalf("stale blob not removed: %v", err)
	}
	info := uploadGraph(t, ts.URL, g)
	if !info.New || info.ID != graph.ID(g) {
		t.Fatalf("re-upload: %+v, want new under %s", info, graph.ID(g))
	}

	_, ts2 := newTestServer(t, server.Config{DataDir: dir})
	if st := serverStats(t, ts2.URL); st.SnapshotsLoaded != 1 {
		t.Fatalf("re-uploaded graph not restored: loaded=%d", st.SnapshotsLoaded)
	}
	if code := getJSON(t, ts2.URL+"/v1/graphs/"+info.ID, nil); code != http.StatusOK {
		t.Fatalf("new id not served after restart: status %d", code)
	}
}

// TestSnapshotWriteFailure arms a blob-write failure: the upload must
// still answer 200 (persistence is a durability upgrade, never a serving
// dependency), the failure must be counted, and a restart must honestly
// not have the graph.
func TestSnapshotWriteFailure(t *testing.T) {
	reg := faultinject.New(3)
	reg.Arm("persist.writeBlob", faultinject.Fault{Round: -1, Err: faultinject.ErrInjected})
	dir := t.TempDir()
	logf, logs := captureLog()
	_, ts1 := newTestServer(t, server.Config{DataDir: dir, Faults: reg, Logf: logf})

	info := uploadGraph(t, ts1.URL, arbods.Grid(8, 8).G)
	st := serverStats(t, ts1.URL)
	if st.SnapshotErrors != 1 || st.SnapshotSaves != 0 {
		t.Fatalf("write-failure stats: errors=%d saves=%d", st.SnapshotErrors, st.SnapshotSaves)
	}
	if reg.Hits("persist.writeBlob") != 1 {
		t.Fatalf("persist.writeBlob hits = %d", reg.Hits("persist.writeBlob"))
	}
	if !strings.Contains(logs(), "event=snapshot_error") {
		t.Fatalf("missing snapshot_error record in:\n%s", logs())
	}
	// The graph serves from memory regardless.
	solveRaw(t, ts1.URL, server.SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 2})

	// A restart has nothing on disk to restore.
	_, ts2 := newTestServer(t, server.Config{DataDir: dir})
	if code := getJSON(t, ts2.URL+"/v1/graphs/"+info.ID, nil); code != http.StatusNotFound {
		t.Fatalf("unsnapshotted graph served after restart: status %d", code)
	}
}

// TestHotGraphShed pins the per-graph fairness cap: while a slowed
// streaming solve holds a graph's only in-flight slot, a second request
// on the same graph sheds with 429 hot_graph — even though the pool has
// a free Runner — and both the shed counter and the shed histogram see
// it. The held solve finishes untouched.
func TestHotGraphShed(t *testing.T) {
	reg := faultinject.New(5)
	// Slow every round after the first: once request A's round-0 progress
	// line arrives, A stays mid-run for ≥400ms per remaining round —
	// plenty for B's shed round trip.
	reg.Arm("congest.step", faultinject.Fault{Round: -1, After: 1, Times: 1000, Delay: 400 * time.Millisecond})
	_, ts := newTestServer(t, server.Config{PoolSize: 2, MaxPerGraph: 1, Faults: reg})

	aBody, err := json.Marshal(server.SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 3, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	aResp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(aBody))
	if err != nil {
		t.Fatal(err)
	}
	defer aResp.Body.Close()
	br := bufio.NewReader(aResp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first, []byte(`"round"`)) {
		t.Fatalf("first stream line: %s", first)
	}

	// B: same graph, different seed (a solve-cache hit would answer before
	// the gate). Must shed, not queue.
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		server.SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 4})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot-graph request: status %d: %s", resp.StatusCode, body)
	}
	if _, code := errBody(t, body); code != "hot_graph" {
		t.Fatalf("hot-graph code = %q", code)
	}
	checkRetryAfter(t, resp)
	st := serverStats(t, ts.URL)
	if st.Shed != 1 || st.Rejected != 0 {
		t.Fatalf("shed stats: shed=%d rejected=%d", st.Shed, st.Rejected)
	}
	var m server.Metrics
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.ShedMicros.Count != 1 {
		t.Fatalf("shedMicros count = %d", m.ShedMicros.Count)
	}

	// A runs to a normal, verified completion.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	var final struct {
		Result *rawSolveResponse `json:"result"`
	}
	for _, line := range bytes.Split(bytes.TrimSpace(rest), []byte("\n")) {
		if bytes.Contains(line, []byte(`"result"`)) {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatalf("bad result line %s: %v", line, err)
			}
		}
	}
	if final.Result == nil || len(final.Result.Receipt) == 0 {
		t.Fatalf("held solve did not finish cleanly:\n%s%s", first, rest)
	}
}

// TestAdaptiveRetryAfter pins that the Retry-After hint actually adapts:
// after an injected slow solve inflates the latency history, a shed
// request is told to wait at least the mean solve time instead of the
// old constant "1".
func TestAdaptiveRetryAfter(t *testing.T) {
	reg := faultinject.New(3)
	// One slow round pushes the mean solve latency past 1s…
	reg.Arm("congest.step", faultinject.Fault{Round: -1, Delay: 1100 * time.Millisecond})
	_, ts := newTestServer(t, server.Config{PoolSize: 1, Faults: reg})
	solveRaw(t, ts.URL, server.SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 6})

	// …so the next shed must hint ⌈(queued+1)·mean/workers⌉ ≥ 2 seconds.
	reg.Arm("server.admit", faultinject.Fault{Round: -1, Err: faultinject.ErrInjected})
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		server.SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 7})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflowed solve: status %d: %s", resp.StatusCode, body)
	}
	checkRetryAfter(t, resp)
	if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); secs < 2 {
		t.Fatalf("Retry-After = %d after a >1s mean solve, want >= 2", secs)
	}
}

// TestQueueFullShed injects an admission overflow: the request answers
// 429 at_capacity with Retry-After, counts in both rejected and shed, and
// the next request (fault spent) serves normally.
func TestQueueFullShed(t *testing.T) {
	reg := faultinject.New(2)
	reg.Arm("server.admit", faultinject.Fault{Round: -1, Err: faultinject.ErrInjected})
	_, ts := newTestServer(t, server.Config{PoolSize: 1, Faults: reg})

	req := server.SolveRequest{Graph: "spec:cycle:n=64", Algorithm: "thm1.1", Seed: 5}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflowed solve: status %d: %s", resp.StatusCode, body)
	}
	if _, code := errBody(t, body); code != "at_capacity" {
		t.Fatalf("overflow code = %q", code)
	}
	checkRetryAfter(t, resp)
	st := serverStats(t, ts.URL)
	if st.Rejected != 1 || st.Shed != 1 || st.Solves != 0 {
		t.Fatalf("overflow stats: rejected=%d shed=%d solves=%d", st.Rejected, st.Shed, st.Solves)
	}

	solveRaw(t, ts.URL, req)
	if st := serverStats(t, ts.URL); st.Solves != 1 {
		t.Fatalf("post-overflow solves = %d", st.Solves)
	}
}

// TestReadyzDrain pins the readiness split: /readyz flips to 503 the
// moment a drain begins while /healthz and every serving endpoint keep
// answering — the load balancer leaves, in-flight clients finish.
func TestReadyzDrain(t *testing.T) {
	s, ts := newTestServer(t, server.Config{PoolSize: 1})
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", code)
	}

	s.BeginDrain()
	var rb struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &rb); code != http.StatusServiceUnavailable || rb.Status != "draining" {
		t.Fatalf("/readyz during drain: %d %q", code, rb.Status)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz during drain: %d", code)
	}
	// Draining sheds nothing by itself: in-flight and late solves finish.
	solveRaw(t, ts.URL, server.SolveRequest{Graph: "spec:cycle:n=32", Algorithm: "thm1.1", Seed: 6})
	st := serverStats(t, ts.URL)
	if !st.Draining || st.Solves != 1 {
		t.Fatalf("drain stats: draining=%v solves=%d", st.Draining, st.Solves)
	}
	s.BeginDrain() // idempotent
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after second BeginDrain: %d", code)
	}
}
