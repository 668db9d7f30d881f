package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"arbods"
	"arbods/internal/gen"
	"arbods/internal/server"
)

// callers is the closed-loop client count: one keep-alive connection per
// CPU of the 2-vCPU reference machine, so the load generator never needs
// more threads or connections than the host has cores.
const callers = 2

const binaryType = "application/x-arbods-csr"

// service is the daemon under test: server.New with its default Config
// behind httptest, over real loopback TCP.
type service struct {
	srv *server.Server
	ts  *httptest.Server
}

func startService() (*service, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &service{srv: srv, ts: httptest.NewServer(srv)}, nil
}

func (s *service) close() {
	if s != nil {
		s.ts.Close()
		s.srv.Close()
	}
}

// client is one caller with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes the 200 answer's JSON into v.
func (c *client) do(method, path, ctype string, body []byte, v any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read answer: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s %s: decode answer: %w", method, path, err)
	}
	return nil
}

type uploadAnswer struct {
	ID    string `json:"id"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (c *client) upload(body []byte, text bool) (uploadAnswer, error) {
	ctype := binaryType
	if text {
		ctype = "text/plain"
	}
	var a uploadAnswer
	err := c.do(http.MethodPost, "/v1/graphs", ctype, body, &a)
	return a, err
}

// solve asks for one solve and checks that its receipt is OK; the receipt
// bytes come back verbatim for the byte-identity check on repeated keys.
func (c *client) solve(id, algo string, seed uint64) (json.RawMessage, error) {
	req, err := json.Marshal(server.SolveRequest{Graph: id, Algorithm: algo, Seed: seed})
	if err != nil {
		return nil, err
	}
	var a struct {
		Receipt json.RawMessage `json:"receipt"`
	}
	if err := c.do(http.MethodPost, "/v1/solve", "application/json", req, &a); err != nil {
		return nil, err
	}
	var r struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(a.Receipt, &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: decode receipt: %w", algo, seed, err)
	}
	if !r.OK {
		return nil, fmt.Errorf("%s seed %d on %s: receipt ok = false", algo, seed, id)
	}
	return a.Receipt, nil
}

// serveGraphs generates count weighted graphs at n nodes, cycling through
// the four serving families. The er and geom parameters keep the mean
// degree of their n=20000 form (p=0.0002, r=0.012) at any n.
func serveGraphs(n, count int, seed uint64) ([]*arbods.Graph, error) {
	specs := []string{
		fmt.Sprintf("forest:n=%d,k=3", n),
		fmt.Sprintf("ba:n=%d,m=3", n),
		fmt.Sprintf("geom:n=%d,r=%g", n, 0.012*math.Sqrt(20000/float64(n))),
		fmt.Sprintf("er:n=%d,p=%g", n, 4/float64(n)),
	}
	gs := make([]*arbods.Graph, count)
	for i := range gs {
		s := seed*uint64(count) + uint64(i)
		w, err := gen.Parse(fmt.Sprintf("%s,seed=%d/uniform:max=100,seed=%d", specs[i%len(specs)], s, s))
		if err != nil {
			return nil, err
		}
		gs[i] = w.G
	}
	return gs, nil
}

func encodeBinary(g *arbods.Graph) ([]byte, error) {
	var b bytes.Buffer
	err := arbods.EncodeGraphBinary(&b, g)
	return b.Bytes(), err
}

// sample is one closed-loop request.
type sample struct {
	start, end time.Time
	class      string
	ok         bool
}

// loadWindow is what a closed loop measured over its timed window: the
// requests that started and ended inside it, the process CPU it took, and
// (traced) the server's stats and metrics at both ends.
type loadWindow struct {
	start, end time.Time
	samples    []sample
	cpu        [2]time.Duration
	rt         [2]runtimeSample
	host       [2]hostCPU
	stats      [2]server.Stats
	metrics    [2]server.Metrics
}

// closedLoop runs the callers, each sending its next request only after
// the previous one answered, through the warm-up and then the window. next
// sends caller k's next request on its own client and returns the request
// class and the outcome of its checks.
func closedLoop(svc *service, warm, window time.Duration, o *outcome, tr *tracer, next func(k int, c *client) (string, error)) loadWindow {
	now := time.Now()
	lw := loadWindow{start: now.Add(warm), end: now.Add(warm + window)}
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for k := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(svc.ts.URL)
			defer c.close()
			for i := 0; time.Now().Before(lw.end); i++ {
				s := sample{start: time.Now()}
				class, err := next(k, c)
				s.end, s.class, s.ok = time.Now(), class, o.op(err)
				per[k] = append(per[k], s)
				tr.add("server.request", class, 0, (k+1)*1_000_000+i, s.start, s.end)
			}
		}()
	}
	obs := newClient(svc.ts.URL)
	defer obs.close()
	mark := func(i int) {
		lw.cpu[i], lw.rt[i], lw.host[i] = cpuTime(), readRuntime(), readHostCPU()
		if tr != nil {
			if err := obs.do(http.MethodGet, "/v1/stats", "", nil, &lw.stats[i]); err != nil {
				o.fail("stats: %v", err)
			}
			if err := obs.do(http.MethodGet, "/v1/metrics", "", nil, &lw.metrics[i]); err != nil {
				o.fail("metrics: %v", err)
			}
		}
	}
	time.Sleep(time.Until(lw.start))
	mark(0)
	time.Sleep(time.Until(lw.end))
	mark(1)
	wg.Wait()
	for _, ss := range per {
		for _, s := range ss {
			if !s.start.Before(lw.start) && !s.end.After(lw.end) {
				lw.samples = append(lw.samples, s)
			}
		}
	}
	return lw
}

// report sets the end-to-end metrics from the window and, traced, the
// server and runtime layers; it returns the answered latencies by class.
func (lw loadWindow) report(o *outcome, traced bool) map[string][]float64 {
	byClass := map[string][]float64{}
	var all []float64
	for _, s := range lw.samples {
		if s.ok {
			l := ms(s.end.Sub(s.start))
			all = append(all, l)
			byClass[s.class] = append(byClass[s.class], l)
		}
	}
	done := float64(len(all))
	o.e2e["p50_ms"] = median(all)
	o.e2e["ops_per_s"] = done / lw.end.Sub(lw.start).Seconds()
	if done > 0 {
		o.e2e["cpu_ms_per_op"] = ms(lw.cpu[1]-lw.cpu[0]) / done
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.layers["host.steal_frac"] = stealFrac(lw.host[0], lw.host[1])
	if !traced {
		return byClass
	}
	runtimeLayer(o, lw.rt[0], lw.rt[1])
	o.layers["server.p99_ms"] = percentile(all, 0.99)
	meanMS := func(pick func(server.Metrics) server.HistogramSnapshot) float64 {
		a, b := pick(lw.metrics[0]), pick(lw.metrics[1])
		if n := b.Count - a.Count; n > 0 {
			return float64(b.SumMicros-a.SumMicros) / float64(n) / 1000
		}
		return 0
	}
	o.layers["server.queue_ms_mean"] = meanMS(func(m server.Metrics) server.HistogramSnapshot { return m.QueueMicros })
	o.layers["server.solve_ms_mean"] = meanMS(func(m server.Metrics) server.HistogramSnapshot { return m.SolveMicros })
	o.layers["server.total_ms_mean"] = meanMS(func(m server.Metrics) server.HistogramSnapshot { return m.TotalMicros })
	a, b := lw.stats[0], lw.stats[1]
	o.layers["server.solve_cache_hit_ratio"] = ratio(b.SolveCacheHits-a.SolveCacheHits, b.SolveCacheMisses-a.SolveCacheMisses)
	o.layers["server.graph_cache_hit_ratio"] = ratio(b.CacheHits-a.CacheHits, b.CacheMisses-a.CacheMisses)
	o.layers["server.builds"] = float64(b.Builds - a.Builds)
	return byClass
}

// ratio is hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// hotSeeds is the seed count per graph pre-solved during set-up: graphs ×
// thm1.1 × seeds 1..hotSeeds are the solve-cache hits of serve_read.
const hotSeeds = 4

func hotSeed(i int) uint64 { return uint64(i%hotSeeds + 1) }

// runServeRead is the serving read path: 8 uploaded graphs, 32 pre-solved
// keys, and a closed loop in which 70% of requests repeat a pre-solved key
// (a solve-cache hit) and 30% ask for a never-used seed (a graph-cache hit
// and a solve-cache miss that runs the engine on a pooled warm Runner).
func runServeRead(c config, seed uint64, window time.Duration, tr *tracer) *outcome {
	o := newOutcome("serve_read")
	var (
		svc    *service
		graphs []*arbods.Graph
		bodies [][]byte
		ids    []string
		hot    []json.RawMessage // receipt of graph i/hotSeeds at hotSeed(i)
	)
	defer func() { svc.close() }()
	setup := func() error {
		var err error
		if graphs, err = serveGraphs(c.serveN, 8, seed); err != nil {
			return err
		}
		bodies = bodies[:0]
		for _, g := range graphs {
			b, err := encodeBinary(g)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
		if svc, err = startService(); err != nil {
			return err
		}
		cl := newClient(svc.ts.URL)
		defer cl.close()
		ids = ids[:0]
		for _, b := range bodies {
			a, err := cl.upload(b, false)
			if err != nil {
				return err
			}
			ids = append(ids, a.ID)
		}
		// Pre-solve with one caller per connection; each writes its own
		// slots of hot.
		hot = make([]json.RawMessage, len(ids)*hotSeeds)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for k := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := newClient(svc.ts.URL)
				defer cl.close()
				for i := k; i < len(hot) && errs[k] == nil; i += callers {
					hot[i], errs[k] = cl.solve(ids[i/hotSeeds], "thm1.1", hotSeed(i))
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if !timedSetups(o, func() error { svc.close(); svc = nil; return setup() }) {
		return o
	}

	rngs := make([]*rand.Rand, callers)
	misses := make([]uint64, callers)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewPCG(seed, uint64(k)))
	}
	lw := closedLoop(svc, c.serveWarmup, window, o, tr, func(k int, cl *client) (string, error) {
		rng := rngs[k]
		gi := rng.IntN(len(ids))
		if rng.Float64() < 0.7 {
			i := gi*hotSeeds + rng.IntN(hotSeeds)
			r, err := cl.solve(ids[gi], "thm1.1", hotSeed(i))
			if err == nil && !bytes.Equal(r, hot[i]) {
				err = fmt.Errorf("receipt of graph %d thm1.1 seed %d differs from its first answer", gi, hotSeed(i))
			}
			return "hit", err
		}
		algo := "thm1.1"
		if rng.Float64() < 0.2 {
			algo = "thm1.2"
		}
		// Caller k's i-th miss uses seed 1000+2i+k: never hot, never repeated.
		misses[k]++
		_, err := cl.solve(ids[gi], algo, 1000+2*misses[k]+uint64(k))
		return "miss", err
	})
	byClass := lw.report(o, tr != nil)
	if tr == nil {
		return o
	}
	o.layers["server.hit_p50_ms"] = median(byClass["hit"])
	o.layers["server.miss_p50_ms"] = median(byClass["miss"])
	o.layers["server.miss_p95_ms"] = percentile(byClass["miss"], 0.95)
	o.layers["graph.body_kb"] = meanKB(bodies)
	probeGraphs(graphs, o)
	probeLibrary(graphs, o, tr)
	return o
}

// ingestBody is one pre-encoded upload and the answer it must get.
type ingestBody struct {
	data         []byte
	text         bool
	nodes, edges int
}

// ingestGraphs is serve_ingest's working set: more distinct graphs than the
// server's default 64-graph cache holds, so round-robin uploads always miss.
const ingestGraphs = 96

// runServeIngest is the serving write path: closed-loop uploads of 96
// distinct graphs (4 families × 24 weight seeds; every third one as text,
// the rest as ARBCSR01), each a full decode, canonical hash, degeneracy,
// cache insert and eviction. No request runs the engine.
func runServeIngest(c config, seed uint64, window time.Duration, tr *tracer) *outcome {
	o := newOutcome("serve_ingest")
	var (
		svc    *service
		graphs []*arbods.Graph
		bodies []ingestBody
	)
	defer func() { svc.close() }()
	setup := func() error {
		base, err := serveGraphs(c.serveN, 4, seed)
		if err != nil {
			return err
		}
		graphs, bodies = graphs[:0], bodies[:0]
		for i := range ingestGraphs {
			g := gen.UniformWeights(base[i%len(base)], 100, seed*ingestGraphs+uint64(i))
			b := ingestBody{text: i%3 == 2, nodes: g.N(), edges: g.M()}
			if b.text {
				var buf bytes.Buffer
				err = arbods.EncodeGraph(&buf, g)
				b.data = buf.Bytes()
			} else {
				b.data, err = encodeBinary(g)
			}
			if err != nil {
				return err
			}
			graphs, bodies = append(graphs, g), append(bodies, b)
		}
		svc, err = startService()
		return err
	}
	if !timedSetups(o, func() error { svc.close(); svc = nil; return setup() }) {
		return o
	}

	var (
		next atomic.Int64
		mu   sync.Mutex
		ids  = make([]string, len(bodies))
	)
	lw := closedLoop(svc, c.serveWarmup, window, o, tr, func(_ int, cl *client) (string, error) {
		i := int(next.Add(1)-1) % len(bodies)
		b := bodies[i]
		class := "upload_bin"
		if b.text {
			class = "upload_text"
		}
		a, err := cl.upload(b.data, b.text)
		if err != nil {
			return class, err
		}
		if a.Nodes != b.nodes || a.Edges != b.edges {
			return class, fmt.Errorf("upload %d: nodes/edges = %d/%d, want %d/%d", i, a.Nodes, a.Edges, b.nodes, b.edges)
		}
		mu.Lock()
		defer mu.Unlock()
		if ids[i] == "" {
			ids[i] = a.ID
		} else if ids[i] != a.ID {
			return class, fmt.Errorf("upload %d: id = %s, first upload got %s", i, a.ID, ids[i])
		}
		return class, nil
	})
	byClass := lw.report(o, tr != nil)
	if tr == nil {
		return o
	}
	o.layers["server.upload_bin_p50_ms"] = median(byClass["upload_bin"])
	o.layers["server.upload_text_p50_ms"] = median(byClass["upload_text"])
	var raw [][]byte
	for _, b := range bodies {
		raw = append(raw, b.data)
	}
	o.layers["graph.body_kb"] = meanKB(raw)
	probeGraphs(graphs, o)
	probeLibrary(graphs[:4], o, tr)
	o.layers["server.upload_unattributed_ms"] = o.layers["server.upload_bin_p50_ms"] -
		o.layers["graph.decode_bin_ms"] - o.layers["graph.canon_hash_ms"] - o.layers["arbor.degeneracy_ms"]
	return o
}

// timedSetups runs setup setupReps times and reports the median as
// setup_s; the last set-up is the one the workload measures.
func timedSetups(o *outcome, setup func() error) bool {
	var ts []float64
	for range setupReps {
		t := time.Now()
		if err := setup(); err != nil {
			o.fail("setup: %v", err)
			return false
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	o.e2e["setup_s"] = median(ts)
	settle()
	return true
}

func meanKB(bodies [][]byte) float64 {
	var n int
	for _, b := range bodies {
		n += len(b)
	}
	return float64(n) / 1024 / float64(max(len(bodies), 1))
}

// probeLibrary runs, on each graph, the library op the server's engine
// path performs — Theorem 1.1 at the degeneracy α an upload is served
// with — untraced, traced and at WithWorkers(1), for the congest, mds,
// verify and trace layers.
func probeLibrary(graphs []*arbods.Graph, o *outcome, tr *tracer) {
	var plain, traced, w1 []opStats
	for i, g := range graphs {
		body, err := encodeBinary(g)
		if err != nil {
			o.fail("probe: encode: %v", err)
			return
		}
		_, alpha := arbods.Degeneracy(g)
		solve := thm11(max(alpha, 1))
		p, err := libraryOp(body, solve, nil, i+1)
		if !o.op(err) {
			return
		}
		t, err := libraryOp(body, solve, tr, i+1)
		if err == nil {
			err = t.pin.diff(p.pin)
		}
		if !o.op(err) {
			return
		}
		w, err := libraryOp(body, solve, nil, i+1, arbods.WithWorkers(1))
		if err == nil {
			err = w.pin.diff(p.pin)
		}
		if !o.op(err) {
			return
		}
		plain, traced, w1 = append(plain, p), append(traced, t), append(w1, w)
	}
	libraryLayers(o, traced, plain, w1, tr.snapshot())
}
