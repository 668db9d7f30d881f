package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"arbods"
	"arbods/internal/graph"
	"arbods/internal/server"
)

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func encodeGraph(t *testing.T, g *arbods.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := arbods.EncodeGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// rawSolveResponse shadows server.SolveResponse to capture the receipt's
// raw bytes for byte-identity assertions.
type rawSolveResponse struct {
	Graph       server.GraphInfo `json:"graph"`
	CacheHit    bool             `json:"cacheHit"`
	SolveCached bool             `json:"solveCached"`
	Seed        uint64           `json:"seed"`
	DS          []int            `json:"ds"`
	Receipt     json.RawMessage  `json:"receipt"`
}

func solveRaw(t *testing.T, base string, req server.SolveRequest) (*http.Response, rawSolveResponse, []byte) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	var out rawSolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("solve: %v\n%s", err, body)
	}
	return resp, out, body
}

// goldenReceipt pins the full receipt JSON of one canonical request:
// thm1.1 on the 16-node path, α=1, ε=0.25, seed=1. The receipt is
// deterministic plain data, so this golden breaks only when the
// algorithm's transcript or the Receipt schema changes — both events a
// human should acknowledge by updating it.
const goldenReceipt = `{
  "algorithm": "weighted-deterministic",
  "nodes": 16,
  "edges": 15,
  "setSize": 15,
  "setWeight": 15,
  "packingSum": 5.333333333333332,
  "certifiedRatio": 2.8125000000000004,
  "guaranteeFactor": 3.75,
  "alpha": 1,
  "eps": 0.25,
  "rounds": 4,
  "messages": 45,
  "totalBits": 298,
  "checks": [
    {
      "name": "domination",
      "pass": true,
      "detail": "all 16 nodes dominated by the 15-node set"
    },
    {
      "name": "packing",
      "pass": true,
      "detail": "dual packing feasible; Σx=5.33333 lower-bounds OPT"
    },
    {
      "name": "ratio",
      "pass": true,
      "detail": "w(S)=15 ≤ 3.75·Σx=20 (α-bound holds)"
    }
  ],
  "ok": true
}`

func TestUploadSolveReceiptGolden(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 2})
	g := arbods.Path(16).G

	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(encodeGraph(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !info.New || !strings.HasPrefix(info.ID, "sha256:") {
		t.Fatalf("upload: status %d info %+v", resp.StatusCode, info)
	}
	if info.Nodes != 16 || info.Edges != 15 || info.Alpha != 1 {
		t.Fatalf("upload metadata wrong: %+v", info)
	}

	_, out, _ := solveRaw(t, ts.URL, server.SolveRequest{
		Graph: info.ID, Algorithm: "thm1.1", Alpha: 1, Eps: 0.25, Seed: 1, IncludeDS: true,
	})
	if !out.CacheHit {
		t.Fatal("solve by uploaded id must hit the CSR cache")
	}
	var rec arbods.Receipt
	if err := json.Unmarshal(out.Receipt, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.OK {
		t.Fatalf("receipt not OK: %s", out.Receipt)
	}
	set := make([]bool, g.N())
	for _, v := range out.DS {
		set[v] = true
	}
	if und := arbods.IsDominatingSet(g, set); len(und) > 0 {
		t.Fatalf("returned DS leaves %d nodes undominated", len(und))
	}

	var got, want bytes.Buffer
	if err := json.Indent(&got, out.Receipt, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&want, []byte(goldenReceipt), "", "  "); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("receipt deviates from golden:\n--- got\n%s\n--- want\n%s", got.String(), want.String())
	}
}

func TestUploadDedupAndMeta(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	g := arbods.Star(10).G
	raw := encodeGraph(t, g)
	upload := func(body []byte, contentType string) server.GraphInfo {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/graphs", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info server.GraphInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	first := upload(raw, "text/plain")
	if !first.New {
		t.Fatal("first upload not marked new")
	}
	if want := graph.ID(g); first.ID != want {
		t.Fatalf("upload id %s, graph.ID %s", first.ID, want)
	}

	// The ID is taken from the decoded graph, not the upload bytes: a
	// comment line, the ARBCSR01 encoding, and a generator spec of the
	// same graph all resolve to it.
	if second := upload(append([]byte("# a comment\n"), raw...), "text/plain"); second.New || second.ID != first.ID {
		t.Fatalf("commented re-upload not deduplicated: %+v vs %+v", first, second)
	}
	var bin bytes.Buffer
	if err := arbods.EncodeGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if third := upload(bin.Bytes(), "application/x-arbods-csr"); third.New || third.ID != first.ID {
		t.Fatalf("binary re-upload not deduplicated: %+v vs %+v", first, third)
	}
	if _, out, _ := solveRaw(t, ts.URL, server.SolveRequest{Graph: "spec:star:n=10", Algorithm: "thm1.1"}); out.Graph.ID != first.ID {
		t.Fatalf("spec build id %s, upload id %s", out.Graph.ID, first.ID)
	}

	meta, err := http.Get(ts.URL + "/v1/graphs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Body.Close()
	if meta.StatusCode != http.StatusOK {
		t.Fatalf("meta: status %d", meta.StatusCode)
	}
	list, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var infos []server.GraphInfo
	if err := json.NewDecoder(list.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != first.ID {
		t.Fatalf("list: %+v", infos)
	}
}

// TestUploadNodeCap: a text body's size line may declare no more nodes
// than an ARBCSR01 upload within MaxUploadBytes could carry, (64 MiB -
// 25) / 4 = 16,777,209 at the default cap. A 33-byte body declaring
// billions is a 400 naming that cap, not an allocation of tens of GB,
// and the server goes on serving.
func TestUploadNodeCap(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	upload := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.String()
	}
	for _, n := range []int{3_000_000_000, 2_000_000_000} {
		status, body := upload([]byte(fmt.Sprintf("arbods-graph v1\nn %d m 0\n", n)))
		if status != http.StatusBadRequest || !strings.Contains(body, "limit of 16777209") {
			t.Errorf("n=%d: status %d, body %s; want 400 naming the 16777209-node cap", n, status, body)
		}
	}
	if status, body := upload(encodeGraph(t, arbods.Star(10).G)); status != http.StatusOK {
		t.Fatalf("upload after the refusals: status %d, body %s", status, body)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	req := server.SolveRequest{Graph: "spec:forest:n=120,k=2,seed=3", Algorithm: "thm1.1", Seed: 1}

	_, first, _ := solveRaw(t, ts.URL, req)
	if first.CacheHit {
		t.Fatal("first spec solve must be a cache miss (build required)")
	}
	_, second, _ := solveRaw(t, ts.URL, req)
	if !second.CacheHit {
		t.Fatal("second spec solve must hit the CSR cache")
	}
	if second.Graph.ID != first.Graph.ID {
		t.Fatalf("spec resolved to different ids: %s vs %s", first.Graph.ID, second.Graph.ID)
	}
	// The spec default α rides the generator's certified bound.
	if first.Graph.Alpha != 2 {
		t.Fatalf("forest spec alpha = %d, want the generator bound 2", first.Graph.Alpha)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{Graph: first.Graph.ID, Seed: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve by id: %d %s", resp.StatusCode, body)
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats server.Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 1 || stats.CacheHits != 2 {
		t.Fatalf("counters: hits=%d misses=%d, want 2/1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.Solves != 3 || stats.Graphs != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestConcurrentClientsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 4})
	req := server.SolveRequest{
		Graph: "spec:ba:n=300,m=3,seed=9", Algorithm: "thm1.2", Alpha: 3, T: 2, Seed: 42,
	}
	// Warm the graph cache so every concurrent request takes the hit path.
	_, _, _ = solveRaw(t, ts.URL, req)

	const clients = 12
	receipts := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range receipts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
				return
			}
			var out rawSolveResponse
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				t.Error(err)
				return
			}
			receipts[i] = out.Receipt
		}()
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(receipts[0], receipts[i]) {
			t.Fatalf("client %d receipt differs:\n%s\nvs\n%s", i, receipts[0], receipts[i])
		}
	}
}

func TestStreamingSolve(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	body, err := json.Marshal(server.SolveRequest{
		Graph: "spec:grid:r=10,c=10", Algorithm: "thm1.1", Alpha: 2, Seed: 1, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var rounds int
	var final struct {
		Result *rawSolveResponse `json:"result"`
	}
	lastRound := -1
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe["round"] != nil:
			var pl struct {
				Round int `json:"round"`
			}
			if err := json.Unmarshal(line, &pl); err != nil {
				t.Fatal(err)
			}
			if pl.Round != lastRound+1 {
				t.Fatalf("rounds out of order: %d after %d", pl.Round, lastRound)
			}
			lastRound = pl.Round
			rounds++
		case probe["result"] != nil:
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected line %s", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final.Result == nil {
		t.Fatal("stream ended without a result line")
	}
	var rec arbods.Receipt
	if err := json.Unmarshal(final.Result.Receipt, &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.OK || rounds != rec.Rounds {
		t.Fatalf("streamed %d rounds, receipt says %d (ok=%v)", rounds, rec.Rounds, rec.OK)
	}

	// The streamed receipt must carry the same content as the plain one
	// (plain responses are indented, stream lines compact — compare
	// compacted).
	_, plain, _ := solveRaw(t, ts.URL, server.SolveRequest{
		Graph: "spec:grid:r=10,c=10", Algorithm: "thm1.1", Alpha: 2, Seed: 1,
	})
	var cPlain, cStream bytes.Buffer
	if err := json.Compact(&cPlain, plain.Receipt); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cStream, final.Result.Receipt); err != nil {
		t.Fatal(err)
	}
	if cPlain.String() != cStream.String() {
		t.Fatalf("streamed and plain receipts differ:\n%s\nvs\n%s", cPlain.String(), cStream.String())
	}
}

func TestCorpusGraphs(t *testing.T) {
	dir := t.TempDir()
	g := arbods.Cycle(30).G
	var buf bytes.Buffer
	if err := arbods.EncodeGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ring.graph"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{PoolSize: 1, CorpusDir: dir})

	req := server.SolveRequest{Graph: "corpus:ring.graph", Algorithm: "thm1.1", Alpha: 2, Seed: 5}
	_, first, _ := solveRaw(t, ts.URL, req)
	if first.CacheHit {
		t.Fatal("first corpus solve must build")
	}
	_, second, _ := solveRaw(t, ts.URL, req)
	if !second.CacheHit || second.Graph.ID != first.Graph.ID {
		t.Fatalf("corpus repeat not cached: %+v", second)
	}

	// Traversal and unknown names are rejected without touching the fs.
	for _, bad := range []string{"corpus:../secret", "corpus:a/b", "corpus:missing.graph"} {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{Graph: bad, Seed: 1})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", bad, resp.StatusCode)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1, MaxUploadBytes: 256})
	cases := []struct {
		name   string
		req    server.SolveRequest
		status int
		code   string
	}{
		{"missing graph", server.SolveRequest{}, http.StatusBadRequest, "bad_request"},
		{"bare ref", server.SolveRequest{Graph: "nope"}, http.StatusBadRequest, "bad_request"},
		{"unknown id", server.SolveRequest{Graph: "sha256:" + strings.Repeat("0", 64)}, http.StatusNotFound, "not_found"},
		{"bad spec", server.SolveRequest{Graph: "spec:warp:n=1"}, http.StatusBadRequest, "bad_request"},
		{"negative size", server.SolveRequest{Graph: "spec:path:n=-5"}, http.StatusBadRequest, "bad_request"},
		{"unknown algorithm", server.SolveRequest{Graph: "spec:path:n=10", Algorithm: "thm9.9"}, http.StatusBadRequest, "run_failed"},
		{"bad mode", server.SolveRequest{Graph: "spec:path:n=10", Mode: "quantum"}, http.StatusBadRequest, "bad_request"},
		{"invalid params", server.SolveRequest{Graph: "spec:path:n=10", Algorithm: "thm1.1", Eps: 7}, http.StatusBadRequest, "run_failed"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/solve", tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var eb struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: malformed error body %s", tc.name, body)
		}
		if eb.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, eb.Code, tc.code)
		}
	}

	// Unknown request fields are rejected, not silently ignored.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":"spec:path:n=10","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}

	// Upload cap: a graph bigger than MaxUploadBytes is refused.
	big := encodeGraph(t, arbods.Grid(20, 20).G)
	resp, err = http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", resp.StatusCode)
	}
}

func TestLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1, MaxCachedGraphs: 1})
	a := server.SolveRequest{Graph: "spec:path:n=40", Seed: 1}
	b := server.SolveRequest{Graph: "spec:cycle:n=40", Seed: 1}

	_, ra, _ := solveRaw(t, ts.URL, a)
	_, _, _ = solveRaw(t, ts.URL, b) // evicts a
	_, ra2, _ := solveRaw(t, ts.URL, a)
	if ra2.CacheHit {
		t.Fatal("evicted graph reported as cache hit")
	}
	if ra2.Graph.ID != ra.Graph.ID {
		t.Fatal("rebuilt spec changed id")
	}

	// An evicted graph's id dangles: by-id lookup 404s (specs rebuild by
	// name; uploads would have to be re-uploaded).
	_, _, _ = solveRaw(t, ts.URL, b) // evicts a again
	resp, _ := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{Graph: ra.Graph.ID, Seed: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted id: status %d, want 404", resp.StatusCode)
	}
}

func serverStats(t *testing.T, base string) server.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestSolveCacheHit pins the response-level cache: a repeated identical
// solve is answered from the cache — no engine run — with the
// byte-identical receipt and dominating set, and so is a request that
// differs only in a field its algorithm does not read (thm1.1's seed).
// A field the algorithm reads (thm1.2's seed) is a different answer, and
// the hit/miss counters move accordingly.
func TestSolveCacheHit(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	req := server.SolveRequest{
		Graph: "spec:cycle:n=60", Algorithm: "thm1.1", Seed: 7, IncludeDS: true,
	}

	_, first, _ := solveRaw(t, ts.URL, req)
	if first.SolveCached {
		t.Fatal("first solve claims a cached answer")
	}
	_, second, _ := solveRaw(t, ts.URL, req)
	if !second.SolveCached {
		t.Fatal("repeated identical solve did not hit the solve cache")
	}
	if !bytes.Equal(first.Receipt, second.Receipt) {
		t.Fatalf("cached receipt differs:\n%s\nvs\n%s", first.Receipt, second.Receipt)
	}
	if len(first.DS) == 0 || !slices.Equal(first.DS, second.DS) {
		t.Fatalf("cached DS differs: %v vs %v", first.DS, second.DS)
	}

	// An equivalent request spelled with explicit defaults shares the
	// entry: keys are built after normalization.
	_, spelled, _ := solveRaw(t, ts.URL, server.SolveRequest{
		Graph: "spec:cycle:n=60", Algorithm: "thm1.1", Alpha: first.Graph.Alpha,
		Eps: 0.2, T: 2, K: 2, Mode: "congest", Seed: 7, IncludeDS: true,
	})
	if !spelled.SolveCached || !bytes.Equal(first.Receipt, spelled.Receipt) {
		t.Fatal("normalized-equivalent request missed the solve cache")
	}
	// thm1.1 is deterministic: another seed is the same answer, served
	// from the cache, while the response still echoes the seed asked for.
	_, reseeded, _ := solveRaw(t, ts.URL, server.SolveRequest{
		Graph: "spec:cycle:n=60", Algorithm: "thm1.1", Seed: 8, IncludeDS: true,
	})
	if !reseeded.SolveCached || !bytes.Equal(first.Receipt, reseeded.Receipt) || !slices.Equal(first.DS, reseeded.DS) {
		t.Fatal("thm1.1 at another seed missed the solve cache or changed the answer")
	}
	if reseeded.Seed != 8 {
		t.Fatalf("response seed = %d, want the requested 8", reseeded.Seed)
	}

	// thm1.2 reads its seed: a different seed is a different answer, not
	// a hit.
	randomized := server.SolveRequest{Graph: "spec:cycle:n=60", Algorithm: "thm1.2", Seed: 7, IncludeDS: true}
	_, r7, _ := solveRaw(t, ts.URL, randomized)
	randomized.Seed = 8
	_, r8, _ := solveRaw(t, ts.URL, randomized)
	if r7.SolveCached || r8.SolveCached {
		t.Fatalf("thm1.2 served from the solve cache (seed 7: %v, seed 8: %v)", r7.SolveCached, r8.SolveCached)
	}
	if bytes.Equal(r7.Receipt, r8.Receipt) && slices.Equal(r7.DS, r8.DS) {
		t.Fatal("thm1.2 gave the same answer at seeds 7 and 8; the check cannot tell a seed that matters")
	}

	stats := serverStats(t, ts.URL)
	if stats.SolveCacheHits != 3 || stats.SolveCacheMisses != 3 {
		t.Fatalf("solve cache counters hits=%d misses=%d, want 3/3", stats.SolveCacheHits, stats.SolveCacheMisses)
	}
	if stats.Solves != 6 {
		t.Fatalf("solves=%d, want 6 (cached answers count as served solves)", stats.Solves)
	}
}

// TestSingleflightBuilds: N clients racing on the same cold graph
// reference trigger exactly one build — the singleflight leader's — no
// matter how the requests interleave (late arrivals hit the graph cache,
// early ones wait on the flight).
func TestSingleflightBuilds(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 4})
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(server.SolveRequest{
				Graph: "spec:ba:n=400,m=3,seed=5", Algorithm: "thm1.1", Alpha: 3, Seed: uint64(i),
			})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	stats := serverStats(t, ts.URL)
	if stats.Builds != 1 {
		t.Fatalf("builds=%d, want 1 (singleflight must coalesce concurrent builds)", stats.Builds)
	}
	if stats.Graphs != 1 || stats.Solves != clients {
		t.Fatalf("stats after race: %+v", stats)
	}
}

// TestSolveDeadline: a server deadline too short for any run answers 503
// with the deadline_exceeded code and a Retry-After hint, the engine
// aborts at its first round barrier, and — because the test's cleanup
// closes the server, which blocks until every Runner is home — the
// aborted runs demonstrably return their Runners to the pool.
func TestSolveDeadline(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1, SolveTimeout: time.Nanosecond})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve", server.SolveRequest{
			Graph: "spec:grid:r=12,c=12", Algorithm: "thm1.1", Seed: uint64(i),
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: status %d, want 503 (%s)", i, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("attempt %d: 503 without Retry-After", i)
		}
		var eb struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "deadline_exceeded" {
			t.Fatalf("attempt %d: code %q, want deadline_exceeded (%s)", i, eb.Code, body)
		}
	}
	stats := serverStats(t, ts.URL)
	if stats.Timeouts != 3 || stats.Solves != 0 {
		t.Fatalf("timeouts=%d solves=%d, want 3/0", stats.Timeouts, stats.Solves)
	}
}

// TestMetricsEndpoint pins the /v1/metrics histogram behavior: an
// engine-run solve moves every phase histogram, a cached repeat moves
// only the total, and buckets are cumulative.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	req := server.SolveRequest{Graph: "spec:path:n=80", Algorithm: "thm1.1", Seed: 3}
	_, _, _ = solveRaw(t, ts.URL, req) // cold: build + queue + solve + total
	_, cached, _ := solveRaw(t, ts.URL, req)
	if !cached.SolveCached {
		t.Fatal("repeat was not served from the solve cache")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.BuildMicros.Count != 1 || m.QueueMicros.Count != 1 || m.SolveMicros.Count != 1 {
		t.Fatalf("phase counts build=%d queue=%d solve=%d, want 1/1/1",
			m.BuildMicros.Count, m.QueueMicros.Count, m.SolveMicros.Count)
	}
	if m.TotalMicros.Count != 2 {
		t.Fatalf("total count %d, want 2 (cached answers are still answered requests)", m.TotalMicros.Count)
	}
	for _, h := range []server.HistogramSnapshot{m.BuildMicros, m.QueueMicros, m.SolveMicros, m.TotalMicros} {
		last := int64(0)
		for _, b := range h.Buckets {
			if b.Count < last {
				t.Fatalf("buckets not cumulative: %+v", h.Buckets)
			}
			last = b.Count
		}
		if n := len(h.Buckets); n > 0 && h.Buckets[n-1].Count != h.Count {
			t.Fatalf("trimmed tail bucket %d does not reach count %d", h.Buckets[n-1].Count, h.Count)
		}
	}
}

func TestHealthzAndAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, server.Config{PoolSize: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	al, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer al.Body.Close()
	var algos []server.AlgorithmInfo
	if err := json.NewDecoder(al.Body).Decode(&algos); err != nil {
		t.Fatal(err)
	}
	if len(algos) != 10 {
		t.Fatalf("%d algorithms listed, want 10", len(algos))
	}
	names := map[string]bool{}
	for _, a := range algos {
		names[a.Name] = true
	}
	for _, want := range []string{"thm3.1", "thm1.1", "thm1.2", "thm1.3", "tree", "kw05"} {
		if !names[want] {
			t.Fatalf("algorithm %q missing from catalog", want)
		}
	}
}
