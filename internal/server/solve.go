package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"arbods"
)

// SolveRequest asks the server to run one algorithm on one graph.
type SolveRequest struct {
	// Graph references the input: "sha256:<hex>" (a previously uploaded
	// or cached graph), "corpus:<name>" (a file from the corpus
	// directory), or "spec:<gen-spec>" (a generator spec like
	// "forest:n=1000,k=3").
	Graph string `json:"graph"`
	// Algorithm is one of the /v1/algorithms names (default "thm1.1").
	Algorithm string `json:"algorithm,omitempty"`

	// Alpha pins the arboricity bound (0 = the graph's certified
	// default: generator bound, else degeneracy).
	Alpha int     `json:"alpha,omitempty"`
	Eps   float64 `json:"eps,omitempty"`  // default 0.2
	T     int     `json:"t,omitempty"`    // thm1.2 (default 2)
	K     int     `json:"k,omitempty"`    // thm1.3 / kw05 (default 2)
	Seed  uint64  `json:"seed,omitempty"` // run seed (deterministic per seed)

	// Mode is "congest" (default, strict bandwidth), "audit", or "local".
	Mode      string `json:"mode,omitempty"`
	MaxRounds int    `json:"maxRounds,omitempty"`

	// IncludeDS adds the dominating set's node IDs to the response
	// (receipts always carry the set size and weight).
	IncludeDS bool `json:"includeDS,omitempty"`
	// Stream switches the response to NDJSON: one line per simulated
	// round ({"round":…,"messages":…,"bits":…,"activeNodes":…}), then a
	// final {"result":…} line. Streamed solves bypass the solve cache —
	// the round progress is the point, and a cached answer has none.
	Stream bool `json:"stream,omitempty"`
}

// normalize fills the request's defaulted fields in place, against the
// resolved graph for the α default. Solve-cache keys are built from the
// normalized form, so "eps omitted" and "eps: 0.2" are the same request.
func (req *SolveRequest) normalize(e entryView) {
	if req.Algorithm == "" {
		req.Algorithm = "thm1.1"
	}
	if req.Alpha == 0 {
		req.Alpha = e.alpha()
	}
	if req.Eps == 0 {
		req.Eps = 0.2
	}
	if req.T == 0 {
		req.T = 2
	}
	if req.K == 0 {
		req.K = 2
	}
	if req.Mode == "" {
		req.Mode = "congest"
	}
}

// key builds the solve-cache key; call after normalize.
func (req *SolveRequest) key(graphID string) solveKey {
	return solveKey{
		graphID:   graphID,
		algorithm: req.Algorithm,
		alpha:     req.Alpha,
		eps:       req.Eps,
		t:         req.T,
		k:         req.K,
		seed:      req.Seed,
		mode:      req.Mode,
		maxRounds: req.MaxRounds,
	}
}

// SolveResponse is the answer-with-proof envelope.
type SolveResponse struct {
	Graph GraphInfo `json:"graph"`
	// CacheHit reports whether the graph's built CSR was already
	// resident (the repeat-query fast path).
	CacheHit bool `json:"cacheHit"`
	// SolveCached reports whether the whole answer came from the solve
	// cache — no engine run happened for this response.
	SolveCached bool `json:"solveCached,omitempty"`
	// ServedBy is the advertised URL of the daemon that executed (or
	// cache-served) the solve; empty on a standalone server. Proxied
	// marks answers that were forwarded to an owner daemon — determinism
	// makes the distinction invisible in the receipt bytes, which is the
	// property the cluster's failover tests pin.
	ServedBy string `json:"servedBy,omitempty"`
	Proxied  bool   `json:"proxied,omitempty"`
	Seed     uint64 `json:"seed"`
	DS       []int  `json:"ds,omitempty"`
	// Receipt is the verification record recomputed from the graph and
	// the run; byte-identical across repeats of the same request,
	// whether the answer was computed or served from the solve cache.
	Receipt *arbods.Receipt `json:"receipt"`
}

// algorithmCatalog documents the servable algorithms; names match
// cmd/mdsrun's -algo values.
var algorithmCatalog = []AlgorithmInfo{
	{Name: "thm3.1", Params: []string{"alpha", "eps"}, Description: "deterministic (2α+1)(1+ε)-approx, unweighted, O(log(Δ/α)/ε) rounds"},
	{Name: "thm1.1", Params: []string{"alpha", "eps"}, Description: "deterministic (2α+1)(1+ε)-approx, weighted, O(log(Δ/α)/ε) rounds"},
	{Name: "thm1.2", Params: []string{"alpha", "t"}, Description: "randomized α+O(α/t)-approx in expectation, weighted, O(t·log Δ) rounds"},
	{Name: "thm1.3", Params: []string{"k"}, Description: "randomized O(kΔ^{2/k})-approx in expectation, general graphs, O(k²) rounds"},
	{Name: "remark4.4", Params: []string{"alpha", "eps"}, Description: "Theorem 1.1 without global knowledge of Δ"},
	{Name: "remark4.5", Params: []string{"eps"}, Description: "Theorem 1.1 without knowledge of α (distributed H-partition estimate)"},
	{Name: "tree", Description: "Observation A.1: one-round 3-approx on forests"},
	{Name: "lw", Description: "Lenzen–Wattenhofer bucket greedy baseline, unweighted"},
	{Name: "lrg", Description: "Jia–Rajaraman–Suel local randomized greedy baseline, unweighted"},
	{Name: "kw05", Params: []string{"k"}, Description: "Kuhn–Wattenhofer fractional+rounding baseline, unweighted"},
}

// resolveGraph turns a request's graph reference into a cached entry,
// building (and caching) it on a miss. The returned bool reports a cache
// hit — this request skipped the build, whether because the graph was
// resident or because a concurrent leader built it (singleflight: N
// requests racing on the same cold reference run one build). ctx bounds
// only the waiting; a build in progress always runs to completion so its
// result lands in the cache. A waiter abandoned by its context returns
// ctx.Err() with status 0.
func (s *Server) resolveGraph(ctx context.Context, ref string) (entryView, bool, int, error) {
	switch {
	case ref == "":
		return entryView{}, false, http.StatusBadRequest, fmt.Errorf("missing graph reference")
	case strings.HasPrefix(ref, "sha256:"):
		e, ok := s.cache.getID(ref)
		if !ok {
			// Failover rebuild: an uploaded graph this daemon never saw may
			// still live on a peer — recover it over the ARBCSR01 wire
			// (content-hash verified) before giving up.
			if e, ok = s.fetchPeerSnapshot(ctx, ref); ok {
				return e, false, 0, nil
			}
			return entryView{}, false, http.StatusNotFound,
				fmt.Errorf("graph %s not cached (upload it first; uploads cannot be rebuilt)", ref)
		}
		return e, true, 0, nil
	case strings.HasPrefix(ref, "corpus:"):
		return s.resolveNamed(ctx, ref, func() (*arbods.Graph, int, int, error) {
			g, err := loadCorpus(s.cfg.CorpusDir, strings.TrimPrefix(ref, "corpus:"))
			if err != nil {
				return nil, 0, http.StatusNotFound, fmt.Errorf("load %s: %v", ref, err)
			}
			return g, 0, 0, nil
		})
	case strings.HasPrefix(ref, "spec:"):
		return s.resolveNamed(ctx, ref, func() (*arbods.Graph, int, int, error) {
			g, bound, err := buildSpec(strings.TrimPrefix(ref, "spec:"))
			if err != nil {
				return nil, 0, http.StatusBadRequest, fmt.Errorf("bad spec %q: %v", ref, err)
			}
			return g, bound, 0, nil
		})
	default:
		return entryView{}, false, http.StatusBadRequest,
			fmt.Errorf("graph reference %q must start with sha256:, corpus:, or spec:", ref)
	}
}

// resolveNamed is the shared by-name path: cache lookup, then a
// singleflighted load+build on a miss. load produces the graph plus the
// generator-certified α bound (0 for corpus files, which certify
// nothing) and an HTTP status for its failures.
func (s *Server) resolveNamed(ctx context.Context, ref string, load func() (*arbods.Graph, int, int, error)) (entryView, bool, int, error) {
	if e, ok := s.cache.getName(ref); ok {
		return e, true, 0, nil
	}
	builtHere := false
	e, status, err, _ := s.flight.do(ctx, ref, func() (entryView, int, error) {
		// Double-check under flight leadership: a previous leader may have
		// finished between our miss and our takeover.
		if e, ok := s.cache.getName(ref); ok {
			return e, 0, nil
		}
		if err := s.cfg.Faults.Fire("server.build"); err != nil {
			return entryView{}, http.StatusInternalServerError, err
		}
		g, bound, status, err := load()
		if err != nil {
			return entryView{}, status, err
		}
		s.builds.Add(1)
		builtHere = true
		e, _ := s.cache.insert(buildEntry(g, ref, bound), true)
		if s.persist != nil {
			// The leader snapshots for everyone: waiters and later requests
			// find the graph durable as well as resident.
			s.persist.save(e)
		}
		return e, 0, nil
	})
	if err != nil {
		return entryView{}, false, status, err
	}
	return e, !builtHere, 0, nil
}

// runAlgorithm dispatches one solve on the graph with the given options;
// the request must be normalized.
func runAlgorithm(req *SolveRequest, e entryView, opts []arbods.Option) (*arbods.Report, error) {
	g := e.g
	switch req.Algorithm {
	case "thm3.1":
		return arbods.UnweightedDeterministic(g, req.Alpha, req.Eps, opts...)
	case "thm1.1":
		return arbods.WeightedDeterministic(g, req.Alpha, req.Eps, opts...)
	case "thm1.2":
		return arbods.WeightedRandomized(g, req.Alpha, req.T, opts...)
	case "thm1.3":
		return arbods.GeneralGraphs(g, req.K, opts...)
	case "remark4.4":
		return arbods.UnknownDelta(g, req.Alpha, req.Eps, opts...)
	case "remark4.5":
		return arbods.UnknownAlpha(g, req.Eps, opts...)
	case "tree":
		return arbods.TreeThreeApprox(g, opts...)
	case "lw":
		return arbods.LWBucketDeterministic(g, opts...)
	case "lrg":
		return arbods.LRGRandomized(g, opts...)
	case "kw05":
		rep, _, err := arbods.KW05(g, req.K, opts...)
		return rep, err
	default:
		return nil, fmt.Errorf("unknown algorithm %q (see GET /v1/algorithms)", req.Algorithm)
	}
}

func modeOption(mode string) (arbods.Option, error) {
	switch mode {
	case "", "congest":
		return nil, nil
	case "audit":
		return arbods.WithMode(arbods.CongestAudit), nil
	case "local":
		return arbods.WithMode(arbods.Local), nil
	default:
		return nil, fmt.Errorf("unknown mode %q (congest, audit, local)", mode)
	}
}

// solveFail maps a failed solve to its response. Context deaths get
// distinct treatment: the server's deadline answers 503 with Retry-After
// (the work was sound, the budget was not — come back), the client's own
// disconnect answers 499 for the logs, a recovered proc panic answers 500
// (the one failure that is the server's fault, not the request's), and
// everything else is the usual 400 with the run error. Streamed responses
// have already committed a 200 header, so they carry the same code on an
// NDJSON error line instead.
func (s *Server) solveFail(w http.ResponseWriter, stream *streamWriter, rid uint64, graphID, algo string, err error) {
	var pe *arbods.ProcPanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		if stream != nil {
			stream.fail(err, "deadline_exceeded")
			return
		}
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.errorCode(w, http.StatusServiceUnavailable, "deadline_exceeded", "solve %s: %v", algo, err)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		if stream != nil {
			stream.fail(err, "canceled")
			return
		}
		s.errorCode(w, StatusClientClosedRequest, "canceled", "solve %s: %v", algo, err)
	case errors.As(err, &pe):
		// The panic was recovered on the engine's goroutines and the Runner
		// is already quarantined (RunnerPool.Put replaces it after the
		// deferred checkin) — this request is lost, every other in-flight
		// solve is untouched. One structured record carries everything an
		// operator needs to find the faulty callback.
		s.panics.Add(1)
		s.logf("event=proc_panic req=%d graph=%s round=%d node=%d value=%q stack=%q",
			rid, graphID, pe.Round, pe.Node, fmt.Sprint(pe.Value), truncStack(pe.Stack))
		if stream != nil {
			stream.fail(err, "proc_panic")
			return
		}
		s.errorCode(w, http.StatusInternalServerError, "proc_panic", "solve %s: %v", algo, err)
	default:
		if stream != nil {
			stream.fail(err, "run_failed")
			return
		}
		s.errorCode(w, http.StatusBadRequest, "run_failed", "run %s: %v", algo, err)
	}
}

// truncStack keeps the panic record one line and bounded: the top of the
// stack identifies the faulty frame; the rest is noise at log volume.
func truncStack(stack []byte) string {
	const max = 600
	if len(stack) > max {
		return string(stack[:max]) + "…"
	}
	return string(stack)
}

// handleSolve is the request lifecycle of one solve: decode → resolve
// graph (cache + singleflight) → solve-cache lookup → admission → Runner
// checkout → run under the request context (recycled, optionally
// streaming round progress) → detach → receipt → cache → respond. Every
// blocking stage observes ctx — the configured solve deadline plus the
// client's disconnect — so an abandoned request frees its pool slot
// within one simulated round.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	rid := s.reqSeq.Add(1)
	ctx := r.Context()
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}

	// Read fully before decoding: when the graph hashes to another
	// daemon, the raw bytes forward verbatim — re-encoding a decoded
	// request could normalize a field and change the solve.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.error(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	var req SolveRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.error(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	modeOpt, err := modeOption(req.Mode)
	if err != nil {
		s.error(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Cluster routing: a solve for a graph this daemon does not own goes
	// to a healthy owner, so the owners' caches stay hot and every
	// replica of a graph answers from warm state. A forwarded request is
	// always executed locally (one hop, never a loop); when every owner
	// is down the fall-through below serves locally — the verified
	// failover path.
	if s.cluster != nil && r.Header.Get(forwardedHeader) == "" && !s.cluster.Owns(req.Graph) {
		if s.proxySolve(w, r, raw, &req, s.cluster.Owners(req.Graph)) {
			return
		}
		s.fallbacks.Add(1)
		s.logf("event=local_fallback graph=%s", req.Graph)
	}
	tBuild := time.Now()
	e, hit, status, err := s.resolveGraph(ctx, req.Graph)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.solveFail(w, nil, rid, req.Graph, req.Algorithm, err)
			return
		}
		s.error(w, status, "%v", err)
		return
	}
	if !hit {
		s.lat.build.observe(time.Since(tBuild))
	}

	req.normalize(e)
	key := req.key(e.id)
	if !req.Stream {
		if a, ok := s.scache.get(key); ok {
			s.solves.Add(1)
			resp := &SolveResponse{
				Graph: entryInfo(e), CacheHit: hit, SolveCached: true,
				ServedBy: s.cluster.Self(),
				Seed:     req.Seed, Receipt: a.receipt,
			}
			if req.IncludeDS {
				resp.DS = a.ds
			}
			s.lat.total.observe(time.Since(t0))
			s.logf("solve %s on %s seed=%d: cached answer (size=%d)",
				req.Algorithm, e.id[:14], req.Seed, a.receipt.SetSize)
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	// Fairness: a graph already at its in-flight cap sheds this request
	// before it can queue, so a hot graph saturates its own share of the
	// pool and nothing more.
	if !s.gate.acquire(e.id) {
		s.shed.Add(1)
		s.lat.shed.observe(time.Since(t0))
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.errorCode(w, http.StatusTooManyRequests, "hot_graph",
			"graph %s already has %d solves in flight (per-graph cap)", e.id[:14], s.cfg.MaxPerGraph)
		return
	}
	defer s.gate.release(e.id)

	// Admission: bound queued solves so overload answers fast instead of
	// stacking goroutines behind the RunnerPool. The "server.admit"
	// failpoint injects the overflow deterministically for chaos tests.
	tQueue := time.Now()
	admitted := s.cfg.Faults.Fire("server.admit") == nil
	if admitted {
		select {
		case s.admit <- struct{}{}:
			defer func() { <-s.admit }()
		default:
			admitted = false
		}
	}
	if !admitted {
		s.rejected.Add(1)
		s.shed.Add(1)
		s.lat.shed.observe(time.Since(t0))
		w.Header().Set("Retry-After", s.retryAfterHint())
		s.error(w, http.StatusTooManyRequests, "server at capacity (%d solves in flight or queued)", cap(s.admit))
		return
	}

	runner, err := s.pool.GetContext(ctx)
	if err != nil {
		s.solveFail(w, nil, rid, e.id, req.Algorithm, err)
		return
	}
	defer s.pool.Put(runner)
	s.lat.queue.observe(time.Since(tQueue))

	var stream *streamWriter
	opts := []arbods.Option{
		arbods.WithContext(ctx),
		arbods.WithSeed(req.Seed),
		arbods.WithRunner(runner),
		arbods.WithWorkers(s.pool.Workers()),
		arbods.WithRecycledResult(),
	}
	if modeOpt != nil {
		opts = append(opts, modeOpt)
	}
	if s.cfg.Faults != nil {
		opts = append(opts, arbods.WithFaultInjection(s.cfg.Faults))
	}
	if req.MaxRounds > 0 {
		opts = append(opts, arbods.WithMaxRounds(req.MaxRounds))
	}
	if req.Stream {
		stream = newStreamWriter(w)
		opts = append(opts, arbods.WithRoundObserver(stream.round))
	}

	tSolve := time.Now()
	rep, err := runAlgorithm(&req, e, opts)
	if err != nil {
		s.solveFail(w, stream, rid, e.id, req.Algorithm, err)
		return
	}
	s.lat.solve.observe(time.Since(tSolve))
	// Detach before the deferred Put: the recycled Result lives on
	// Runner-owned memory that the next checkout overwrites.
	rep = rep.Detach()
	s.solves.Add(1)

	receipt := arbods.BuildReceipt(e.g, rep)
	if !req.Stream {
		// Errors never land here, and the detached receipt/DS are
		// immutable, so the cached answer is exactly the bytes a rerun
		// would produce.
		s.scache.put(key, solveAnswer{receipt: receipt, ds: rep.DS})
	}
	resp := &SolveResponse{
		Graph:    entryInfo(e),
		CacheHit: hit,
		ServedBy: s.cluster.Self(),
		Seed:     req.Seed,
		Receipt:  receipt,
	}
	if req.IncludeDS {
		resp.DS = rep.DS
	}
	s.lat.total.observe(time.Since(t0))
	s.logf("solve %s on %s n=%d seed=%d: size=%d rounds=%d ok=%v hit=%v",
		req.Algorithm, e.id[:14], e.g.N(), req.Seed, resp.Receipt.SetSize, resp.Receipt.Rounds, resp.Receipt.OK, hit)
	if stream != nil {
		stream.finish(resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// streamWriter emits NDJSON round progress followed by the final result.
// All writes happen on the handler goroutine (the engine invokes the
// round observer on the run's coordinating goroutine, which is the
// handler's), so no locking is needed.
type streamWriter struct {
	w       http.ResponseWriter
	enc     *json.Encoder
	flusher http.Flusher
	started bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w)}
	sw.flusher, _ = w.(http.Flusher)
	return sw
}

func (sw *streamWriter) start() {
	if sw.started {
		return
	}
	sw.started = true
	sw.w.Header().Set("Content-Type", "application/x-ndjson")
	sw.w.WriteHeader(http.StatusOK)
}

// progressLine is one streamed round.
type progressLine struct {
	Round       int   `json:"round"`
	Messages    int64 `json:"messages"`
	Bits        int64 `json:"bits"`
	ActiveNodes int   `json:"activeNodes"`
}

func (sw *streamWriter) round(rs arbods.RoundStat) {
	sw.start()
	_ = sw.enc.Encode(progressLine{
		Round: rs.Round, Messages: rs.Messages, Bits: rs.Bits, ActiveNodes: rs.ActiveNodes,
	})
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}

// fail emits the terminal NDJSON error line, carrying the same code an
// unstreamed response would have in its error envelope.
func (sw *streamWriter) fail(err error, code string) {
	sw.start()
	_ = sw.enc.Encode(errorBody{Error: err.Error(), Code: code})
}

func (sw *streamWriter) finish(resp *SolveResponse) {
	sw.start()
	_ = sw.enc.Encode(struct {
		Result *SolveResponse `json:"result"`
	}{Result: resp})
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}
