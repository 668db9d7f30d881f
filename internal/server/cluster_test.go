package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arbods"
	"arbods/internal/cluster"
	"arbods/internal/faultinject"
	"arbods/internal/server"
)

// testCluster is an in-process N-daemon cluster: each daemon is a real
// *server.Server behind its own httptest listener, and every daemon's
// peer set points at the others' live URLs. Handlers are late-bound
// (daemon k's URL must exist before daemon k is constructed), answering
// 503 until their server is up — exactly what a still-booting daemon
// would do, so early health probes see a truthful picture.
type testCluster struct {
	servers []*server.Server
	sets    []*cluster.Set
	urls    []string
}

func newTestCluster(t *testing.T, n int, reg *faultinject.Registry, mutate func(i int, cfg *server.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	slots := make([]atomic.Pointer[server.Server], n)
	for i := 0; i < n; i++ {
		slot := &slots[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if s := slot.Load(); s != nil {
				s.ServeHTTP(w, r)
				return
			}
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}))
		t.Cleanup(ts.Close)
		tc.urls = append(tc.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		var tr http.RoundTripper
		if reg != nil {
			tr = &faultinject.Transport{Reg: reg}
		}
		cset, err := cluster.New(cluster.Config{
			Self:          tc.urls[i],
			Peers:         tc.urls,
			ProbeInterval: 10 * time.Millisecond,
			ProbeTimeout:  300 * time.Millisecond,
			Transport:     tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := server.Config{PoolSize: 2, Cluster: cset}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		tc.servers = append(tc.servers, s)
		tc.sets = append(tc.sets, cset)
		slots[i].Store(s)
	}
	return tc
}

// ownership splits daemon indices into owners and non-owners of id.
func (tc *testCluster) ownership(id string) (owners, others []int) {
	urls := tc.sets[0].Owners(id)
	for i, u := range tc.urls {
		if slices.Contains(urls, u) {
			owners = append(owners, i)
		} else {
			others = append(others, i)
		}
	}
	return owners, others
}

// clusterSolveResponse adds the cluster tags to the raw-receipt view.
type clusterSolveResponse struct {
	rawSolveResponse
	ServedBy string `json:"servedBy"`
	Proxied  bool   `json:"proxied"`
}

func clusterSolve(t *testing.T, base string, req server.SolveRequest) clusterSolveResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve at %s: status %d: %s", base, resp.StatusCode, body)
	}
	var out clusterSolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("solve: %v\n%s", err, body)
	}
	return out
}

// waitUnhealthy blocks until every given set considers peer unhealthy.
func waitUnhealthy(t *testing.T, sets []*cluster.Set, peer string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, s := range sets {
			if s.Healthy(peer) {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never went unhealthy", peer)
}

func TestClusterProxyTagsAndCounters(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	info := uploadGraph(t, tc.urls[0], arbods.Grid(6, 6).G)
	owners, others := tc.ownership(info.ID)
	if len(owners) != 2 || len(others) != 1 {
		t.Fatalf("ownership split = %v/%v, want 2/1", owners, others)
	}
	req := server.SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 7, IncludeDS: true}

	// A solve at an owner executes locally and says so.
	direct := clusterSolve(t, tc.urls[owners[0]], req)
	if direct.Proxied || direct.ServedBy != tc.urls[owners[0]] {
		t.Fatalf("owner solve tagged servedBy=%q proxied=%v", direct.ServedBy, direct.Proxied)
	}

	// A solve at the non-owner proxies to an owner; the relayed answer is
	// tagged and the receipt bytes are untouched by the relay.
	proxied := clusterSolve(t, tc.urls[others[0]], req)
	if !proxied.Proxied {
		t.Fatal("non-owner solve not tagged proxied")
	}
	if !slices.Contains(tc.sets[0].Owners(info.ID), proxied.ServedBy) {
		t.Fatalf("proxied solve servedBy=%q, not an owner", proxied.ServedBy)
	}
	if !bytes.Equal(direct.Receipt, proxied.Receipt) {
		t.Fatalf("proxied receipt differs from owner receipt:\n%s\nvs\n%s", proxied.Receipt, direct.Receipt)
	}

	// Per-peer counters surface in the non-owner's /v1/stats.
	var st server.Stats
	if code := getJSON(t, tc.urls[others[0]]+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Cluster == nil {
		t.Fatal("clustered daemon reports no cluster stats")
	}
	if st.Cluster.Proxied < 1 {
		t.Fatalf("proxied counter = %d, want >= 1", st.Cluster.Proxied)
	}
	if st.Cluster.Self != tc.urls[others[0]] || st.Cluster.Replicas != 2 {
		t.Fatalf("cluster stats identity = %+v", st.Cluster)
	}
	var forwards int64
	for _, ps := range st.Cluster.Peers {
		forwards += ps.Forwards
	}
	if forwards < 1 {
		t.Fatalf("no per-peer forward counters moved: %+v", st.Cluster.Peers)
	}
}

func TestClusterUploadReplicationAndBinaryWire(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	g := arbods.Grid(5, 7).G

	// Binary upload: the ARBCSR01 codec on the wire must land on the same
	// content hash as the text format (hashing happens after canonical
	// rebuild).
	var bin bytes.Buffer
	if err := arbods.EncodeGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.urls[0]+"/v1/graphs", "application/x-arbods-csr", bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !info.New {
		t.Fatalf("binary upload: status %d info %+v", resp.StatusCode, info)
	}
	if text := uploadGraph(t, tc.urls[0], g); text.ID != info.ID || text.New {
		t.Fatalf("text re-upload of same graph: %+v vs binary id %s", text, info.ID)
	}

	// The upload replicated synchronously to both owners: each owner
	// lists the graph without ever having received it directly.
	owners, _ := tc.ownership(info.ID)
	for _, i := range owners {
		if tc.urls[i] == tc.urls[0] {
			continue
		}
		var list []server.GraphInfo
		if code := getJSON(t, tc.urls[i]+"/v1/graphs", &list); code != http.StatusOK {
			t.Fatalf("list at owner %d: %d", i, code)
		}
		found := false
		for _, gi := range list {
			if gi.ID == info.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %s missing replicated graph %s", tc.urls[i], info.ID)
		}
	}
	var st server.Stats
	getJSON(t, tc.urls[0]+"/v1/stats", &st)
	if st.Cluster == nil || st.Cluster.ReplicaPushes < 1 {
		t.Fatalf("uploader replicaPushes = %+v, want >= 1", st.Cluster)
	}

	// Accept negotiation: GET /v1/graphs/{id} serves the graph itself as
	// ARBCSR01, byte-decodable back to the same content hash.
	hreq, _ := http.NewRequest(http.MethodGet, tc.urls[0]+"/v1/graphs/"+info.ID, nil)
	hreq.Header.Set("Accept", "application/x-arbods-csr")
	dresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if ct := dresp.Header.Get("Content-Type"); ct != "application/x-arbods-csr" {
		t.Fatalf("binary download content-type %q", ct)
	}
	got, err := arbods.DecodeGraphBinary(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("downloaded graph %dx%d, want %dx%d", got.N(), got.M(), g.N(), g.M())
	}
}

func TestClusterSnapshotFetch(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	g := arbods.Grid(4, 9).G

	// Plant the graph on one daemon only: a forwarded upload is not
	// re-replicated, so the owners have never seen it.
	var bin bytes.Buffer
	if err := arbods.EncodeGraphBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/graphs", bytes.NewReader(bin.Bytes()))
	hreq.Header.Set("Content-Type", "application/x-arbods-csr")
	hreq.Header.Set("X-Arbods-Forwarded", "test")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var info server.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A solve at an owner that lacks the graph must recover it from the
	// planting daemon over the binary wire instead of 404ing.
	owners, _ := tc.ownership(info.ID)
	target := owners[0]
	if tc.urls[target] == tc.urls[0] {
		target = owners[1]
	}
	out := clusterSolve(t, tc.urls[target], server.SolveRequest{Graph: info.ID, Algorithm: "thm3.1", Seed: 3})
	if out.ServedBy != tc.urls[target] {
		t.Fatalf("owner solve servedBy=%q, want local %q", out.ServedBy, tc.urls[target])
	}
	var st server.Stats
	getJSON(t, tc.urls[target]+"/v1/stats", &st)
	if st.Cluster == nil || st.Cluster.SnapshotFetches != 1 {
		t.Fatalf("snapshotFetches = %+v, want 1", st.Cluster)
	}
}

func TestClusterFallbackWhenOwnersDown(t *testing.T) {
	reg := faultinject.New(1)
	tc := newTestCluster(t, 3, reg, nil)
	g := arbods.Grid(6, 5).G
	var info server.GraphInfo
	for _, u := range tc.urls {
		info = uploadGraph(t, u, g)
	}
	owners, others := tc.ownership(info.ID)
	nonOwner := others[0]
	req := server.SolveRequest{Graph: info.ID, Algorithm: "thm1.1", Seed: 11, IncludeDS: true}
	baseline := clusterSolve(t, tc.urls[owners[0]], req)

	// Kill both owners' links: every request to them — probes included —
	// fails fast, so the whole cluster's health view flips.
	for _, i := range owners {
		reg.Arm("peer."+hostOf(t, tc.urls[i]), faultinject.Fault{Round: -1, Times: 1 << 20, Err: faultinject.ErrInjected})
	}
	for _, i := range owners {
		waitUnhealthy(t, []*cluster.Set{tc.sets[nonOwner]}, tc.urls[i])
	}

	// With every owner down, the non-owner serves locally — and the
	// paper's determinism makes its receipt byte-identical to the
	// owner's pre-outage answer.
	out := clusterSolve(t, tc.urls[nonOwner], req)
	if out.Proxied || out.ServedBy != tc.urls[nonOwner] {
		t.Fatalf("fallback solve tagged servedBy=%q proxied=%v", out.ServedBy, out.Proxied)
	}
	if !bytes.Equal(out.Receipt, baseline.Receipt) {
		t.Fatalf("fallback receipt differs from owner receipt:\n%s\nvs\n%s", out.Receipt, baseline.Receipt)
	}
	var st server.Stats
	getJSON(t, tc.urls[nonOwner]+"/v1/stats", &st)
	if st.Cluster == nil || st.Cluster.LocalFallbacks < 1 {
		t.Fatalf("localFallbacks = %+v, want >= 1", st.Cluster)
	}
}

// TestClusterPartitionSweepIdentity is the in-process half of the chaos
// acceptance: blackhole one daemon mid-cluster (its link hangs rather
// than refusing — a partition, not a crash) and pin that a sweep served
// by the surviving daemons produces receipts byte-identical to a
// single-healthy-server run of the same sweep.
func TestClusterPartitionSweepIdentity(t *testing.T) {
	sweep := []server.SolveRequest{
		{Algorithm: "thm1.1", Seed: 1},
		{Algorithm: "thm1.1", Seed: 2},
		{Algorithm: "thm3.1", Seed: 1},
		{Algorithm: "thm1.2", Seed: 3},
		{Algorithm: "lw"},
		{Algorithm: "lrg", Seed: 5},
	}
	g := arbods.Grid(7, 6).G

	// Baseline: one standalone server answers the whole sweep.
	_, solo := newTestServer(t, server.Config{PoolSize: 2})
	soloInfo := uploadGraph(t, solo.URL, g)
	baseline := make([][]byte, len(sweep))
	for i, req := range sweep {
		req.Graph = soloInfo.ID
		_, out, _ := solveRaw(t, solo.URL, req)
		baseline[i] = out.Receipt
	}

	reg := faultinject.New(7)
	tc := newTestCluster(t, 3, reg, nil)
	var info server.GraphInfo
	for _, u := range tc.urls {
		info = uploadGraph(t, u, g)
	}
	if info.ID != soloInfo.ID {
		t.Fatalf("content hash disagrees: %s vs %s", info.ID, soloInfo.ID)
	}

	// Partition daemon 2: its link blackholes (hangs until the caller's
	// context dies) for every peer.
	reg.Arm("peer."+hostOf(t, tc.urls[2]), faultinject.Fault{Round: -1, Times: 1 << 20, Err: faultinject.ErrBlackhole})
	waitUnhealthy(t, []*cluster.Set{tc.sets[0], tc.sets[1]}, tc.urls[2])

	// The survivors answer the full sweep — proxying between themselves
	// or falling back locally when the partitioned daemon was the owner —
	// with every receipt byte-identical to the standalone run.
	for i, req := range sweep {
		req.Graph = info.ID
		out := clusterSolve(t, tc.urls[i%2], req)
		if !bytes.Equal(out.Receipt, baseline[i]) {
			t.Fatalf("sweep[%d] receipt differs from standalone baseline:\n%s\nvs\n%s", i, out.Receipt, baseline[i])
		}
	}
}

// hostOf extracts host:port from a test server URL for peer failpoints.
func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	const p = "http://"
	if len(rawURL) <= len(p) || rawURL[:len(p)] != p {
		t.Fatalf("unexpected test URL %q", rawURL)
	}
	return rawURL[len(p):]
}
