// Command arbods-server runs the arbods HTTP/JSON daemon: a long-running
// MDS service with content-addressed graph caching, a shared RunnerPool,
// and verification receipts on every answer. A graph's id is "sha256:"
// plus the hex SHA-256 of its ARBCSR01 encoding, whichever format it was
// uploaded in.
//
//	arbods-server -addr :8080 -corpus ./graphs
//
// Endpoints (see internal/server and the README "Serving" section):
//
//	POST /v1/graphs      upload a graph (arbods text format or ARBCSR01) → cached id
//	GET  /v1/graphs      list cached graphs
//	GET  /v1/graphs/{id} metadata for one cached graph
//	POST /v1/solve       run an algorithm, get the set + receipt
//	GET  /v1/algorithms  servable algorithms and their parameters
//	GET  /v1/stats       cache, pool, and outcome counters
//	GET  /v1/metrics     solve-path latency histograms
//	GET  /healthz        liveness plus stats
//	GET  /readyz         readiness: 503 once a drain begins
//
// Solves run under a context: -solve-timeout bounds each request (a run
// past the deadline aborts at its next round barrier and answers 503
// with Retry-After), and a client that disconnects cancels its run the
// same way. Identical requests are answered from a response cache
// (-max-solves entries) keyed by graph, algorithm, mode, round cap and
// the parameters the algorithm lists in GET /v1/algorithms, so a new
// seed for a deterministic algorithm is a cache hit.
//
// With -data-dir, every uploaded or name-built graph is snapshotted as its
// checksummed ARBCSR01 blob and restored on the next start, so a
// restarted (or crashed and restarted) daemon serves the same sha256:
// references without re-uploads; corrupt snapshots are detected, logged,
// and rebuilt from source. A data dir written when ids hashed the text
// encoding is rescanned and its stale blobs dropped, never served. -per-graph caps one graph's share of the pool
// (fairness 429s), and a panicking solve answers 500 while everything
// else keeps serving.
//
// With -peers (comma-separated advertised URLs, -self naming this
// daemon's own entry), the daemon joins a replicated cluster: each graph
// rendezvous-hashes to -replicas owner daemons, solves for graphs this
// daemon does not own are proxied to a healthy owner (and served locally
// when every owner is down — receipts stay byte-identical either way),
// uploads replicate to their owners, and /v1/stats grows a per-peer
// health and traffic section. Peer health rides /readyz probes every
// -probe-interval with failure-count hysteresis.
//
// Slow clients are bounded without flags of their own: request headers
// must arrive within 3s, a whole request within 3s plus its -max-upload
// cap at 1 MiB/s (67s at the 64 MiB default), and an idle keep-alive
// connection is closed after 2 minutes. Responses have no write deadline,
// since solves run long and stream.
//
// SIGINT/SIGTERM first flip /readyz to 503, then drain in-flight requests
// under -drain-timeout before the RunnerPool is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"arbods/internal/cluster"
	"arbods/internal/server"
)

// Connection limits (see the package doc). net/http lifts the read
// deadline once a request body has been read, so it never cuts a solve.
const (
	readHeaderTimeout = 3 * time.Second
	idleTimeout       = 2 * time.Minute
	minUploadRate     = 1 << 20 // bytes per second
)

// readTimeout is the read deadline of a request under an upload cap of
// maxUpload bytes (0 = server.DefaultMaxUploadBytes).
func readTimeout(maxUpload int64) time.Duration {
	if maxUpload <= 0 {
		maxUpload = server.DefaultMaxUploadBytes
	}
	return readHeaderTimeout + time.Duration(maxUpload)*time.Second/minUploadRate
}

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "arbods-server:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until shutdown. stop, when non-nil,
// replaces OS signals as the shutdown trigger (tests close it); ready,
// when non-nil, receives the bound listen address once serving.
func run(args []string, stop <-chan struct{}, ready chan<- string) error {
	fs := flag.NewFlagSet("arbods-server", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		corpus    = fs.String("corpus", "", "directory served by corpus:<name> graph references")
		dataDir   = fs.String("data-dir", "", "snapshot directory: graphs persist across restarts as checksummed binary CSRs (\"\" = in-memory only)")
		pool      = fs.Int("pool", 0, "RunnerPool size = concurrent solves (0 = GOMAXPROCS)")
		inflight  = fs.Int("inflight", 0, "max admitted solves before 429 (0 = 4×pool)")
		perGraph  = fs.Int("per-graph", 0, "max solves in flight per graph before a fairness 429 (0 = no per-graph cap)")
		maxUpload = fs.Int64("max-upload", 0, "max graph upload bytes (0 = 64 MiB)")
		maxGraphs = fs.Int("max-graphs", 0, "max cached built graphs, LRU-evicted (0 = 64)")
		maxSolves = fs.Int("max-solves", 0, "max cached solve answers, LRU-evicted (0 = 256)")
		solveTO   = fs.Duration("solve-timeout", 0, "per-solve deadline; past it the run aborts and answers 503 (0 = none)")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown timeout: in-flight requests get this long to finish after SIGTERM")
		quiet     = fs.Bool("quiet", false, "suppress per-request log lines")
		peers     = fs.String("peers", "", "comma-separated advertised peer URLs forming a replicated cluster (\"\" = standalone)")
		self      = fs.String("self", "", "this daemon's advertised URL within -peers (required with -peers)")
		replicas  = fs.Int("replicas", 0, "owner daemons per graph (0 = 2, clamped to the peer count)")
		probeIv   = fs.Duration("probe-interval", 0, "peer /readyz probe period (0 = 1s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logf := log.New(os.Stderr, "arbods-server: ", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	var cset *cluster.Set
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self (this daemon's advertised URL)")
		}
		var err error
		cset, err = cluster.New(cluster.Config{
			Self:          *self,
			Peers:         strings.Split(*peers, ","),
			Replicas:      *replicas,
			ProbeInterval: *probeIv,
			Logf:          logf,
		})
		if err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		CorpusDir:       *corpus,
		DataDir:         *dataDir,
		PoolSize:        *pool,
		MaxInflight:     *inflight,
		MaxPerGraph:     *perGraph,
		MaxUploadBytes:  *maxUpload,
		MaxCachedGraphs: *maxGraphs,
		MaxCachedSolves: *maxSolves,
		SolveTimeout:    *solveTO,
		Cluster:         cset,
		Logf:            logf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout(*maxUpload),
		IdleTimeout:       idleTimeout,
	}
	if logf != nil {
		logf("listening on %s", ln.Addr())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		sigStop := make(chan struct{})
		go func() { <-sig; close(sigStop) }()
		stop = sigStop
	}

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-stop:
	}

	// Drain: flip /readyz to 503 first so the load balancer stops sending
	// traffic, then let http.Server.Shutdown wait out in-flight requests
	// under the drain timeout, then release the RunnerPool — Close must
	// run only after every handler has put its Runner back.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = hs.Shutdown(ctx)
	srv.Close()
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
