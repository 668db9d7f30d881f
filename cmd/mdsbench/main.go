// Command mdsbench regenerates every experiment table of the paper
// reproduction (E1…E10, see DESIGN.md §4) and prints them as markdown,
// CSV, or a machine-readable JSON report. EXPERIMENTS.md is produced
// from the markdown output; the committed BENCH_*.json trajectory files
// are produced from the JSON output:
//
//	mdsbench -scale full -seed 1 > experiments.md
//	mdsbench -only E1,E6 -format csv
//	mdsbench -scale small -format json > BENCH_$(date +%F)_small.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"arbods/internal/bench"
	"arbods/internal/congest"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mdsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mdsbench", flag.ContinueOnError)
	var (
		scale    = fs.String("scale", "small", "experiment scale: small or full")
		seed     = fs.Uint64("seed", 1, "base random seed")
		only     = fs.String("only", "", "comma-separated experiment IDs (e.g. E1,E6); empty = all")
		format   = fs.String("format", "md", "output format: md, csv, or json")
		reps     = fs.Int("reps", 0, "repetitions for randomized algorithms (0 = scale default)")
		parallel = fs.Int("parallel", 1, "concurrent simulator runs per experiment (0 = GOMAXPROCS, 1 = sequential); tables are identical for every value")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "md", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want md, csv, or json)", *format)
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Name)
		}
		return nil
	}
	// One reusable Runner serves every sequential simulator run of the
	// sweep: the worker pool, arenas, and outbox records are built once
	// and amortized across all experiments — the serving pattern the
	// engine is designed around. With -parallel > 1 the independent runs
	// of each experiment additionally pipeline across a shared RunnerPool
	// (one warmed Runner per concurrency slot, GOMAXPROCS split between
	// run- and engine-level parallelism); the emitted tables are
	// bit-identical either way, so -parallel is purely a wall-clock knob.
	runner := congest.NewRunner()
	defer runner.Close()
	cfg := bench.Config{Seed: *seed, Reps: *reps, Runner: runner}
	// The experiment runs are pure CPU work, so concurrency beyond the
	// core count only costs memory (each pool slot keeps a warmed Runner
	// resident): clamp rather than oversubscribe.
	if *parallel == 0 || *parallel > runtime.GOMAXPROCS(0) {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if *parallel > 1 {
		pool := congest.NewRunnerPool(*parallel)
		defer pool.Close()
		cfg.Parallel = *parallel
		cfg.Pool = pool
	}
	switch *scale {
	case "small":
		cfg.Scale = bench.Small
	case "full":
		cfg.Scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", *scale)
	}
	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	start := time.Now()
	if *format == "json" {
		rep, err := bench.RunJSON(cfg, wanted)
		if err != nil {
			return err
		}
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mdsbench: %d experiment(s), scale=%s, seed=%d, %s\n",
			len(rep.Experiments), *scale, *seed, time.Since(start).Round(time.Millisecond))
		return nil
	}
	ran := 0
	for _, e := range bench.All() {
		if len(wanted) > 0 && !wanted[e.ID] {
			continue
		}
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		ran++
		for _, t := range tables {
			switch *format {
			case "md":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Printf("# %s — %s (%s)\n%s\n", t.ID, t.Title, t.PaperRef, t.CSV())
			}
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -only=%s", *only)
	}
	fmt.Fprintf(os.Stderr, "mdsbench: %d experiment(s), scale=%s, seed=%d, %s\n",
		ran, *scale, *seed, time.Since(start).Round(time.Millisecond))
	return nil
}
