// Package server implements arbods-server: a long-running HTTP/JSON
// service that turns the library from a batch tool into a serving system.
// The design mirrors the library's own serving pattern end to end:
//
//   - graphs arrive by upload, by name from a corpus directory, or by
//     generator spec, and are cached as built CSRs keyed by graph.ID
//     (sha256 of the ARBCSR01 encoding, the one canonical byte form), so
//     repeat queries skip the build that dominates a cold request;
//   - solve requests are scheduled onto a shared congest.RunnerPool with
//     admission control, so concurrent clients never oversubscribe the
//     machine and every run executes on warmed Runner state; results are
//     not recycled, so no Runner-owned memory can reach a response;
//   - the request, its cache key, the response envelopes and the
//     algorithm table are the shared contract in internal/api, the same
//     one arbods/client and cmd/mdsrun speak;
//   - every answer ships with a verification receipt (arbods.Receipt):
//     the coverage proof, the packing feasibility, and the α-bound ratio
//     check, recomputed from the graph and the run — clients verify, they
//     don't trust. Receipts are deterministic per (graph, algorithm,
//     parameters, seed): the same request twice returns byte-identical
//     receipt JSON;
//   - long runs stream round-level progress as NDJSON when the request
//     asks for it, riding the engine's WithRoundObserver hook;
//   - that same determinism powers a response-level solve cache: answers
//     are keyed by (graph, algorithm, parameters, seed) after default
//     normalization, so a repeated request skips the engine and returns
//     the byte-identical receipt from an LRU of past answers;
//   - concurrent cold builds of the same graph reference coalesce through
//     a singleflight group — one build, many waiters;
//   - every solve runs under a context: the configured server deadline
//     and the client's disconnect both cancel the engine at its next
//     round barrier (503 + Retry-After for the deadline, 499 for the
//     departed client), so a stuck or abandoned run frees its Runner
//     within one round instead of holding a pool slot hostage;
//   - a panicking proc callback cannot take the process down: the engine
//     recovers it on its own goroutines, the request answers 500 with
//     code "proc_panic" and one structured log record (request id, graph,
//     round, node, truncated stack), and the poisoned Runner is swapped
//     for a fresh one at checkin — every other in-flight solve finishes
//     untouched;
//   - with Config.DataDir set, every uploaded or name-built graph is
//     mirrored to disk as a checksummed binary CSR snapshot (atomic
//     temp+rename writes, so a SIGKILL cannot tear them) and restored at
//     startup: a restarted server answers sha256: references from before
//     the crash without re-uploading, and corrupt snapshots are detected,
//     logged, dropped, and rebuilt from source on demand;
//   - overload is shed fairly and fast: the global admission cap and a
//     per-graph in-flight cap both answer 429 + Retry-After (the shed
//     counter and histogram track them), and /readyz — distinct from
//     /healthz's liveness — flips to 503 when a drain begins so the load
//     balancer steers traffic away while in-flight solves complete;
//   - /v1/stats counts both cache layers plus rejections, sheds,
//     timeouts, cancellations, panics, replaced Runners and snapshot
//     activity, and /v1/metrics serves log-spaced latency histograms for
//     the build, queue, solve, total and shed phases of the request.
//
// Failure injection for the chaos suite threads through Config.Faults
// (internal/faultinject): deterministic, seeded faults at the
// server.build, server.admit, persist.writeBlob, persist.writeIndex and
// congest.step seams.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"arbods"
	"arbods/internal/api"
	"arbods/internal/cluster"
	"arbods/internal/faultinject"
	"arbods/internal/graph"
)

// Config configures a Server.
type Config struct {
	// CorpusDir is the directory served by "corpus:<name>" graph
	// references ("" disables the corpus).
	CorpusDir string
	// PoolSize bounds concurrently executing solves (0 = GOMAXPROCS).
	PoolSize int
	// MaxInflight bounds admitted-but-waiting solves before the server
	// answers 429 (0 = 4×PoolSize).
	MaxInflight int
	// MaxUploadBytes bounds the graph upload body (0 = 64 MiB).
	MaxUploadBytes int64
	// MaxCachedGraphs bounds resident built graphs, LRU-evicted (0 = 64).
	MaxCachedGraphs int
	// MaxCachedSolves bounds cached solve answers, LRU-evicted (0 = 256).
	MaxCachedSolves int
	// SolveTimeout bounds one solve request end to end (0 = no server
	// deadline; the client's disconnect still cancels). A run that hits
	// the deadline aborts at the next round barrier and answers 503 with
	// a Retry-After header.
	SolveTimeout time.Duration
	// MaxPerGraph bounds solves in flight for any single graph, so one hot
	// graph cannot starve every other client out of the pool: the excess
	// answers 429 with Retry-After and counts in the shed counter (0 =
	// MaxInflight, i.e. no per-graph restriction beyond the global cap).
	MaxPerGraph int
	// DataDir enables crash-safe snapshot persistence: every uploaded or
	// name-built graph is mirrored to <DataDir>/graphs as a checksummed
	// binary CSR blob plus an index row, and restored on the next New —
	// a restarted server answers sha256: references from before the
	// restart without re-uploading or re-parsing ("" disables).
	DataDir string
	// Cluster joins this daemon to a replicated peer set (nil = standalone).
	// Graph references rendezvous-hash to Cluster.Replicas() owner
	// daemons: solves for graphs this daemon does not own are proxied to
	// a healthy owner (tagged servedBy/proxied in the response) and fall
	// back to a local solve when every owner is down; uploads are
	// replicated to their owners as ARBCSR01 snapshots; sha256: graphs
	// missing locally are recovered from any healthy peer. The Server
	// takes ownership: New starts the health prober, Close stops it.
	Cluster *cluster.Set
	// Faults injects deterministic failures for chaos testing: the server
	// fires "server.build" before a graph build, "server.admit" before
	// admission, "persist.writeBlob"/"persist.writeIndex" around snapshot
	// writes, and threads the registry into every engine run for
	// "congest.step" (nil = no injection, at the cost of one comparison
	// per seam).
	Faults *faultinject.Registry
	// Logf receives one line per request outcome (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the arbods-server HTTP handler plus the shared state behind
// it: the content-addressed graph cache and the RunnerPool all solves
// execute on. Create with New, serve via ServeHTTP, and Close after the
// HTTP server has fully shut down (Close waits for every Runner).
type Server struct {
	cfg     Config
	pool    *arbods.RunnerPool
	cache   *graphCache
	scache  *solveCache
	persist *persistStore // nil when DataDir is unset
	cluster *cluster.Set  // nil when standalone
	gate    *graphGate
	flight  flightGroup
	mux     *http.ServeMux
	admit   chan struct{}

	draining atomic.Bool   // flipped by BeginDrain; /readyz answers 503
	reqSeq   atomic.Uint64 // request ids for the structured failure records

	solves   atomic.Int64 // answered solves, response-cache hits included
	rejected atomic.Int64 // admission overflows (429)
	shed     atomic.Int64 // all load-shedding 429s: admission overflows + per-graph caps
	timeouts atomic.Int64 // solves lost to the deadline (503)
	canceled atomic.Int64 // solves lost to client disconnect (499)
	panics   atomic.Int64 // solves lost to a recovered proc panic (500)
	builds   atomic.Int64 // graph builds executed (singleflight leaders)

	proxied     atomic.Int64 // solves forwarded to an owner daemon
	fallbacks   atomic.Int64 // non-owned solves served locally (all owners down)
	snapFetches atomic.Int64 // graphs recovered from a peer's snapshot
	replPushes  atomic.Int64 // upload snapshots replicated to owners
	replFails   atomic.Int64 // failed replication pushes

	lat latencySet
}

// New builds a Server from cfg. The only error source is snapshot
// persistence: an unusable DataDir fails construction rather than
// silently serving without durability.
func New(cfg Config) (*Server, error) {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 64 << 20
	}
	pool := arbods.NewRunnerPool(cfg.PoolSize)
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * pool.Size()
	}
	if cfg.MaxPerGraph <= 0 || cfg.MaxPerGraph > cfg.MaxInflight {
		cfg.MaxPerGraph = cfg.MaxInflight
	}
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		cache:   newGraphCache(cfg.MaxCachedGraphs),
		scache:  newSolveCache(cfg.MaxCachedSolves),
		cluster: cfg.Cluster,
		gate:    newGraphGate(cfg.MaxPerGraph),
		mux:     http.NewServeMux(),
		admit:   make(chan struct{}, cfg.MaxInflight),
	}
	s.cluster.Start()
	if cfg.DataDir != "" {
		ps, err := newPersistStore(cfg.DataDir, s.logf, cfg.Faults)
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.persist = ps
		// Restore snapshots without counting builds or cache misses: the
		// graphs are served exactly as if their uploads had survived the
		// restart.
		for _, e := range ps.load() {
			s.cache.insert(e, false)
		}
		if loaded, _, _ := ps.counters(); loaded > 0 {
			s.logf("event=snapshot_restore graphs=%d dir=%s", loaded, cfg.DataDir)
		}
	}
	s.mux.HandleFunc("POST /v1/graphs", s.handleUpload)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphMeta)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the cluster prober and releases the RunnerPool. Call only
// after the HTTP server has drained (http.Server.Shutdown): Close blocks
// until every checked-out Runner is back.
func (s *Server) Close() {
	s.cluster.Close()
	s.pool.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func entryInfo(e entryView) GraphInfo {
	return GraphInfo{
		ID: e.id, Name: e.name, Nodes: e.g.N(), Edges: e.g.M(),
		Alpha: api.DefaultAlpha(e.bound, e.degen), Hits: e.hits,
	}
}

// handleUpload ingests a graph in the arbods text format or as ARBCSR01
// and caches its built CSR under graph.ID, the sha256 of its ARBCSR01
// encoding. The ID is taken from the decoded graph, not the upload bytes,
// so re-uploading the same graph — in either format, comments and line
// order included — is idempotent and returns the resident entry.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	// Read fully before decoding: a cap hit must answer 413, not whatever
	// parse error the truncation happens to produce.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.error(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		s.error(w, http.StatusBadRequest, "read upload: %v", err)
		return
	}
	// Content negotiation: the default is the arbods text format; the
	// ARBCSR01 binary codec — the same checksummed encoding the disk
	// snapshots use — skips the text parse entirely, and is how peers
	// replicate uploads to each other.
	var g *arbods.Graph
	if strings.Contains(r.Header.Get("Content-Type"), api.BinaryContentType) {
		g, err = arbods.DecodeGraphBinary(bytes.NewReader(raw))
	} else {
		// A text size line declares any node count in a few bytes; allow
		// no more nodes than a binary upload within the cap can carry.
		g, err = graph.DecodeText(raw, graph.MaxBinaryNodes(s.cfg.MaxUploadBytes))
	}
	if err != nil {
		s.error(w, http.StatusBadRequest, "decode graph: %v", err)
		return
	}
	resident, existed := s.cache.insert(buildEntry(g, "", 0), false)
	if s.persist != nil && !existed {
		// Synchronous by design: once the 200 is on the wire the graph is
		// durable — a crash right after the response cannot lose it.
		s.persist.save(resident)
	}
	// Replicate fresh direct uploads to the graph's owner daemons, so a
	// proxied solve lands on a warm cache and the graph outlives this
	// process. Forwarded pushes stop here — one hop, no echo.
	if s.cluster != nil && !existed && r.Header.Get(forwardedHeader) == "" {
		s.replicate(resident)
	}
	info := entryInfo(resident)
	info.New = !existed
	s.logf("upload %s n=%d m=%d new=%v", resident.id, g.N(), g.M(), !existed)
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	entries, _, _ := s.cache.snapshot()
	infos := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, entryInfo(e))
	}
	s.writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGraphMeta(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.cache.getID(id)
	if !ok {
		s.error(w, http.StatusNotFound, "graph %s not cached", id)
		return
	}
	// Accept negotiation: ARBCSR01 serves the graph itself rather than
	// its metadata — the snapshot-fetch path peers use for failover
	// rebuilds, and the cheapest way for any client to download a cached
	// graph byte-exactly. Local cache only, never fetched recursively.
	if strings.Contains(r.Header.Get("Accept"), api.BinaryContentType) {
		blob := graph.AppendBinary(nil, e.g)
		w.Header().Set("Content-Type", api.BinaryContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.WriteHeader(http.StatusOK)
		w.Write(blob)
		return
	}
	s.writeJSON(w, http.StatusOK, entryInfo(e))
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, api.Algorithms)
}

// Stats is the /v1/stats payload. Two cache layers report separately:
// cacheHits/cacheMisses count graph-build lookups (was the CSR resident?),
// solveCacheHits/solveCacheMisses count answer lookups (was this exact
// solve already computed?). solves counts answered solves — response-cache
// hits included — so engine runs = solves − solveCacheHits − streamed
// cache bypasses; builds counts graph builds actually executed, which
// singleflight keeps at one per cold reference no matter how many
// requests race on it.
type Stats struct {
	Graphs           int   `json:"graphs"`
	CacheHits        int64 `json:"cacheHits"`
	CacheMisses      int64 `json:"cacheMisses"`
	SolveCacheHits   int64 `json:"solveCacheHits"`
	SolveCacheMisses int64 `json:"solveCacheMisses"`
	Builds           int64 `json:"builds"`
	Solves           int64 `json:"solves"`
	Rejected         int64 `json:"rejected"`
	// Shed counts every load-shedding 429 — admission-queue overflows
	// (also in Rejected) plus per-graph fairness sheds.
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	// Panics counts solves that died to a recovered proc panic (500); each
	// one also retired its Runner, so RunnersReplaced tracks it.
	Panics          int64 `json:"panics"`
	RunnersReplaced int64 `json:"runnersReplaced"`
	SnapshotsLoaded int64 `json:"snapshotsLoaded,omitempty"`
	SnapshotSaves   int64 `json:"snapshotSaves,omitempty"`
	SnapshotErrors  int64 `json:"snapshotErrors,omitempty"`
	PoolSize        int   `json:"poolSize"`
	PoolWorkers     int   `json:"poolWorkers"`
	MaxInflight     int   `json:"maxInflight"`
	MaxPerGraph     int   `json:"maxPerGraph"`
	Draining        bool  `json:"draining,omitempty"`
	// Cluster reports the replication layer's view — per-peer health and
	// traffic plus this daemon's proxy/replication counters — and is
	// absent on a standalone server.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the /v1/stats cluster section.
type ClusterStats struct {
	Self     string `json:"self"`
	Replicas int    `json:"replicas"`
	// Proxied counts solves this daemon forwarded to an owner;
	// LocalFallbacks counts non-owned solves served locally because every
	// owner was down — the failover the receipts then verify.
	Proxied        int64 `json:"proxied"`
	LocalFallbacks int64 `json:"localFallbacks"`
	// SnapshotFetches counts graphs recovered from a peer over the
	// ARBCSR01 wire; ReplicaPushes/ReplicaPushFailures count upload
	// replication to owner daemons.
	SnapshotFetches     int64                `json:"snapshotFetches"`
	ReplicaPushes       int64                `json:"replicaPushes"`
	ReplicaPushFailures int64                `json:"replicaPushFailures"`
	Peers               []cluster.PeerStatus `json:"peers"`
}

func (s *Server) statsNow() Stats {
	entries, hits, misses := s.cache.snapshot()
	shits, smisses := s.scache.counters()
	loaded, saves, serrs := s.persist.counters()
	var cs *ClusterStats
	if s.cluster != nil {
		cs = &ClusterStats{
			Self:                s.cluster.Self(),
			Replicas:            s.cluster.Replicas(),
			Proxied:             s.proxied.Load(),
			LocalFallbacks:      s.fallbacks.Load(),
			SnapshotFetches:     s.snapFetches.Load(),
			ReplicaPushes:       s.replPushes.Load(),
			ReplicaPushFailures: s.replFails.Load(),
			Peers:               s.cluster.Status(),
		}
	}
	return Stats{
		Cluster:          cs,
		Graphs:           len(entries),
		CacheHits:        hits,
		CacheMisses:      misses,
		SolveCacheHits:   shits,
		SolveCacheMisses: smisses,
		Builds:           s.builds.Load(),
		Solves:           s.solves.Load(),
		Rejected:         s.rejected.Load(),
		Shed:             s.shed.Load(),
		Timeouts:         s.timeouts.Load(),
		Canceled:         s.canceled.Load(),
		Panics:           s.panics.Load(),
		RunnersReplaced:  s.pool.Replaced(),
		SnapshotsLoaded:  loaded,
		SnapshotSaves:    saves,
		SnapshotErrors:   serrs,
		PoolSize:         s.pool.Size(),
		PoolWorkers:      s.pool.Workers(),
		MaxInflight:      cap(s.admit),
		MaxPerGraph:      s.cfg.MaxPerGraph,
		Draining:         s.draining.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsNow())
}

// handleMetrics serves the solve-path latency histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.lat.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}{Status: "ok", Stats: s.statsNow()})
}

// handleReadyz is the load-balancer readiness probe, distinct from
// /healthz on purpose: /healthz answers "is the process alive" (200 for as
// long as it can serve at all — restarting it would not help), /readyz
// answers "should new traffic come here" and flips to 503 the moment a
// drain begins, so the balancer steers new requests away while in-flight
// solves finish under the drain timeout.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// BeginDrain flips the server to not-ready: /readyz starts answering 503
// while every other endpoint keeps serving, giving the load balancer time
// to move traffic before http.Server.Shutdown stops accepting. Idempotent;
// there is no way back — a draining server is on its way out.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.logf("event=drain_begin")
	}
}

// retryAfterHint estimates how many seconds a shed or timed-out client
// should wait before retrying, from live load instead of a constant:
// (queued solves + 1) × mean solve latency ÷ pool workers, rounded up and
// clamped to [1, 30]. A cold server with no latency history answers the
// floor — the old hard-coded "1" — and a deeply backed-up server saturates
// at 30 rather than telling clients to go away for minutes.
func (s *Server) retryAfterHint() string {
	mean := s.lat.solve.mean()
	if mean <= 0 {
		return "1"
	}
	wait := time.Duration(len(s.admit)+1) * mean / time.Duration(s.pool.Size())
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// StatusClientClosedRequest reports a solve abandoned because the client
// disconnected mid-request (nginx's 499; Go's net/http has no name for
// it). The status is moot to the departed client but keeps logs and
// tests honest about why the run stopped.
const StatusClientClosedRequest = 499

// defaultCode maps a status to its error code for the handlers that have
// exactly one failure meaning per status. Handlers with a more specific
// cause (deadline_exceeded, canceled) pass it to errorCode directly.
func defaultCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "at_capacity"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case StatusClientClosedRequest:
		return "canceled"
	default:
		return "internal"
	}
}

func (s *Server) error(w http.ResponseWriter, status int, format string, args ...any) {
	s.errorCode(w, status, defaultCode(status), format, args...)
}

func (s *Server) errorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.logf("error %d %s: %s", status, code, msg)
	s.writeJSON(w, status, api.ErrorBody{Error: msg, Code: code})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("write response: %v", err)
	}
}
