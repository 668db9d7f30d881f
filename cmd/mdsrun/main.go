// Command mdsrun executes one dominating set algorithm on one graph and
// prints a JSON summary (or the dominating set itself).
//
//	mdsrun -algo thm1.1 -gen forest:n=1000,k=3/uniform:max=100 -alpha 3 -eps 0.2
//	mdsrun -algo thm1.2 -t 2 -graph my.graph -alpha 4
//	mdsrun -algo tree -gen tree:n=5000 -print-ds
//
// With -servers, the solve runs on an arbods-server cluster instead of
// in-process: the graph uploads over the ARBCSR01 binary wire, the solve
// rides the resilient client (multi-endpoint failover, backoff, circuit
// breaking), and the answer's receipt is verified locally before
// anything prints:
//
//	mdsrun -servers host1:8080,host2:8080 -algo thm1.1 -gen grid:n=900 -receipt
//
// Both paths build one request from the flags (internal/api.SolveRequest,
// with the server's defaults) and print one summary built from the
// catalog name, the graph and the receipt, byte for byte the same.
//
// Algorithms are the GET /v1/algorithms names, run locally through the
// same table the server dispatches from: thm3.1 (unweighted det), thm1.1
// (weighted det), thm1.2 (weighted randomized, -t), thm1.3 (general
// graphs, -k), remark4.4, remark4.5, tree (Observation A.1), lw (LW
// bucket), lrg (LRG), kw05 (Kuhn–Wattenhofer, -k). Two centralized
// baselines run only locally: greedy and exact.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"arbods"
	arbodsclient "arbods/client"
	"arbods/internal/api"
	"arbods/internal/arbor"
	"arbods/internal/gen"
)

type summary struct {
	Algorithm       string  `json:"algorithm"`
	Graph           string  `json:"graph"`
	Nodes           int     `json:"nodes"`
	Edges           int     `json:"edges"`
	MaxDegree       int     `json:"maxDegree"`
	Alpha           int     `json:"alpha,omitempty"`
	DSSize          int     `json:"dsSize"`
	DSWeight        int64   `json:"dsWeight"`
	Rounds          int     `json:"rounds,omitempty"`
	Messages        int64   `json:"messages,omitempty"`
	TotalBits       int64   `json:"totalBits,omitempty"`
	PackingSum      float64 `json:"packingSum,omitempty"`
	CertifiedRatio  float64 `json:"certifiedRatio,omitempty"`
	GuaranteeFactor float64 `json:"guaranteeFactor,omitempty"`
	Certified       bool    `json:"certified"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdsrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mdsrun", flag.ContinueOnError)
	var (
		algo    = fs.String("algo", "thm1.1", "algorithm (see doc comment)")
		genSpec = fs.String("gen", "", "graph generator spec (see internal/gen.Parse)")
		file    = fs.String("graph", "", "graph file in arbods text format")
		alpha   = fs.Int("alpha", 0, "arboricity bound (0 = use generator bound or degeneracy)")
		eps     = fs.Float64("eps", 0.2, "ε parameter")
		tParam  = fs.Int("t", 2, "t parameter (thm1.2)")
		kParam  = fs.Int("k", 2, "k parameter (thm1.3, kw05)")
		seed    = fs.Uint64("seed", 1, "run seed")
		printDS = fs.Bool("print-ds", false, "print the dominating set node IDs")
		receipt = fs.Bool("receipt", false, "print the full verification receipt instead of the summary")
		workers = fs.Int("workers", 0, "simulator goroutines (0 = GOMAXPROCS, 1 = sequential)")
		local   = fs.Bool("local", false, "run in the LOCAL model (no bandwidth limit)")
		timeout = fs.Duration("timeout", 0, "abort the run after this long (checked at each round barrier; 0 = no limit)")
		servers = fs.String("servers", "", "comma-separated arbods-server base URLs: solve remotely through the resilient client instead of in-process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A zero in the request means "use the default" (api.Normalize), so
	// an explicit zero flag would silently run something else.
	if *eps <= 0 || *tParam < 1 || *kParam < 1 {
		return errors.New("-eps, -t and -k must be positive")
	}
	g, name, bound, err := loadGraph(*genSpec, *file)
	if err != nil {
		return err
	}
	if *servers == "" && (*algo == "greedy" || *algo == "exact") {
		return runBaseline(*algo, g, name, *printDS)
	}

	req := api.SolveRequest{
		Algorithm: *algo, Alpha: *alpha, Eps: *eps, T: *tParam, K: *kParam,
		Seed: *seed, IncludeDS: *printDS,
	}
	if *local {
		req.Mode = "local"
	}
	// The α default is the server's rule, so a -servers run solves the
	// request a local run would.
	degen := 0
	if bound == 0 && req.Alpha == 0 {
		degen = arbor.DegeneracyOf(g)
	}
	api.Normalize(&req, api.DefaultAlpha(bound, degen))
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var rec *arbods.Receipt
	var ds []int
	if *servers != "" {
		rec, ds, err = solveRemote(ctx, strings.Split(*servers, ","), g, req)
	} else {
		rec, ds, err = solveLocal(ctx, g, req, *workers)
	}
	if err != nil {
		return err
	}
	var out any = newSummary(req.Algorithm, name, g, rec)
	if *receipt {
		out = rec
	}
	return emit(out, ds, *printDS)
}

// newSummary is the one summary both paths print, built from the catalog
// name the run was asked for, the graph, and the receipt certifying it.
func newSummary(algo, name string, g *arbods.Graph, rec *arbods.Receipt) summary {
	return summary{
		Algorithm: algo, Graph: name,
		Nodes: rec.Nodes, Edges: rec.Edges, MaxDegree: g.MaxDegree(),
		Alpha:  rec.Alpha,
		DSSize: rec.SetSize, DSWeight: rec.SetWeight,
		Rounds: rec.Rounds, Messages: rec.Messages, TotalBits: rec.TotalBits,
		PackingSum: rec.PackingSum, CertifiedRatio: rec.CertifiedRatio,
		GuaranteeFactor: rec.Factor, Certified: rec.OK,
	}
}

// solveLocal runs the request in-process through the same algorithm table
// the server dispatches from, and verifies it through BuildReceipt, the
// one path the server and bench harness use too.
func solveLocal(ctx context.Context, g *arbods.Graph, req api.SolveRequest, workers int) (*arbods.Receipt, []int, error) {
	opts := []arbods.Option{arbods.WithContext(ctx)}
	if workers > 0 {
		opts = append(opts, arbods.WithWorkers(workers))
	}
	rep, err := api.Run(g, &req, opts...)
	if err != nil {
		return nil, nil, err
	}
	return arbods.BuildReceipt(g, rep), rep.DS, nil
}

// solveRemote executes the request on an arbods-server cluster through
// the resilient client: the graph uploads over the binary wire, the solve
// retries across endpoints with backoff and per-endpoint circuit
// breaking, and the answer's receipt (plus the dominating set itself,
// with -print-ds) is verified locally before anything prints.
func solveRemote(ctx context.Context, endpoints []string, g *arbods.Graph, req api.SolveRequest) (*arbods.Receipt, []int, error) {
	cli, err := arbodsclient.New(arbodsclient.Config{
		Endpoints:      endpoints,
		VerifyReceipts: true,
		Logf:           log.New(os.Stderr, "mdsrun: ", 0).Printf,
	})
	if err != nil {
		return nil, nil, err
	}
	info, err := cli.Upload(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	req.Graph = info.ID
	out, err := cli.Solve(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if out.Receipt == nil {
		return nil, nil, errors.New("server answered without a receipt")
	}
	return out.Receipt, out.DS, nil
}

// runBaseline runs a centralized baseline (greedy, exact): CLI-only, with
// no rounds and no packing, so its summary certifies domination alone.
func runBaseline(algo string, g *arbods.Graph, name string, printDS bool) error {
	var res arbods.BaselineResult
	if algo == "greedy" {
		res = arbods.GreedyCentralized(g)
	} else {
		var err error
		if res, err = arbods.ExactSmall(g); err != nil {
			return err
		}
	}
	set := make([]bool, g.N())
	for _, v := range res.DS {
		set[v] = true
	}
	s := summary{
		Algorithm: algo, Graph: name,
		Nodes: g.N(), Edges: g.M(), MaxDegree: g.MaxDegree(),
		DSSize: len(res.DS), DSWeight: res.Weight,
		Certified: len(arbods.IsDominatingSet(g, set)) == 0,
	}
	return emit(s, res.DS, printDS)
}

// emit prints v as indented JSON, then, with -print-ds, the set itself.
func emit(v any, ds []int, printDS bool) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil || !printDS {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(ds)
}

func loadGraph(spec, file string) (*arbods.Graph, string, int, error) {
	switch {
	case spec != "" && file != "":
		return nil, "", 0, errors.New("pass either -gen or -graph, not both")
	case spec != "":
		w, err := gen.Parse(spec)
		if err != nil {
			return nil, "", 0, err
		}
		return w.G, w.Name, w.ArboricityBound, nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, "", 0, err
		}
		defer f.Close()
		g, err := arbods.DecodeGraph(f)
		if err != nil {
			return nil, "", 0, err
		}
		return g, file, 0, nil
	default:
		return nil, "", 0, errors.New("pass -gen SPEC or -graph FILE")
	}
}
