package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"arbods"
	"arbods/internal/api"
	"arbods/internal/graph"
)

// The solve contract lives in internal/api, shared with arbods/client and
// cmd/mdsrun; these aliases keep the server's names for it.
type (
	SolveRequest  = api.SolveRequest
	GraphInfo     = api.GraphInfo
	AlgorithmInfo = api.AlgorithmInfo
)

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
		e, _ := s.cache.insert(buildEntry(g, graph.ID(g), ref, bound), true)
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
// checkout → run under the request context (optionally streaming round
// progress) → receipt → cache → respond. Every blocking stage observes
// ctx — the configured solve deadline plus the client's disconnect — so
// an abandoned request frees its pool slot within one simulated round.
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
	req, err := api.DecodeSolveRequest(raw)
	if err != nil {
		s.error(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if _, err := api.Options(&req); err != nil {
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
		var bp *buildPanicError
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.solveFail(w, nil, rid, req.Graph, req.Algorithm, err)
		case errors.As(err, &bp):
			// One structured record, like a proc panic's; the stack stays in
			// the log, out of the response.
			s.logf("event=build_panic req=%d graph=%s value=%q stack=%q",
				rid, req.Graph, fmt.Sprint(bp.value), truncStack(bp.stack))
			s.writeJSON(w, http.StatusInternalServerError, api.ErrorBody{Error: err.Error(), Code: "build_panic"})
		default:
			s.error(w, status, "%v", err)
		}
		return
	}
	if !hit {
		s.lat.build.observe(time.Since(tBuild))
	}

	info := entryInfo(e)
	api.Normalize(&req, info.Alpha)
	key := api.Key(req, e.id)
	resp := &api.SolveResponse{Graph: info, CacheHit: hit, ServedBy: s.cluster.Self(), Seed: req.Seed}
	if !req.Stream {
		if a, ok := s.scache.get(key); ok {
			s.solves.Add(1)
			resp.SolveCached, resp.ReceiptBytes = true, a.receipt
			if req.IncludeDS {
				resp.DS = a.ds
			}
			s.lat.total.observe(time.Since(t0))
			s.logf("solve %s on %s seed=%d: cached answer (size=%d)",
				req.Algorithm, e.id[:14], req.Seed, len(a.ds))
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
		arbods.WithRunner(runner),
		arbods.WithWorkers(s.pool.Workers()),
	}
	if s.cfg.Faults != nil {
		opts = append(opts, arbods.WithFaultInjection(s.cfg.Faults))
	}
	if req.Stream {
		stream = newStreamWriter(w)
		opts = append(opts, arbods.WithRoundObserver(stream.round))
	}

	tSolve := time.Now()
	rep, err := api.Run(e.g, &req, opts...)
	if err != nil {
		s.solveFail(w, stream, rid, e.id, req.Algorithm, err)
		return
	}
	s.lat.solve.observe(time.Since(tSolve))
	s.solves.Add(1)

	receipt := arbods.BuildReceipt(e.g, rep)
	receiptJSON, err := json.Marshal(receipt)
	if err != nil {
		s.solveFail(w, stream, rid, e.id, req.Algorithm, err)
		return
	}
	if !req.Stream {
		// Errors never land here, and the receipt bytes and DS are never
		// written again, so the cached answer is exactly the bytes a
		// rerun would produce.
		s.scache.put(key, solveAnswer{receipt: receiptJSON, ds: rep.DS})
	}
	resp.ReceiptBytes = receiptJSON
	if req.IncludeDS {
		resp.DS = rep.DS
	}
	s.lat.total.observe(time.Since(t0))
	s.logf("solve %s on %s n=%d seed=%d: size=%d rounds=%d ok=%v hit=%v",
		req.Algorithm, e.id[:14], e.g.N(), req.Seed, receipt.SetSize, receipt.Rounds, receipt.OK, hit)
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
	_ = sw.enc.Encode(api.ErrorBody{Error: err.Error(), Code: code})
}

func (sw *streamWriter) finish(resp *api.SolveResponse) {
	sw.start()
	_ = sw.enc.Encode(struct {
		Result *api.SolveResponse `json:"result"`
	}{Result: resp})
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
}
