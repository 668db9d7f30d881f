// Command mdsbench regenerates every experiment table of the paper
// reproduction (E1…E10, see -list) and prints them as markdown or CSV.
// EXPERIMENTS.md at the repository root is its full-scale markdown output:
//
//	mdsbench -scale full -seed 1 > EXPERIMENTS.md
//	mdsbench -only E1,E6 -format csv
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
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
		format   = fs.String("format", "md", "output format: md or csv")
		reps     = fs.Int("reps", 0, "repetitions for randomized algorithms (0 = scale default)")
		parallel = fs.Int("parallel", 1, "concurrent simulator runs per experiment (0 = GOMAXPROCS, 1 = sequential); tables are identical for every value")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 0 {
		return fmt.Errorf("-reps %d is negative (0 = scale default)", *reps)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d is negative (0 = GOMAXPROCS, 1 = sequential)", *parallel)
	}
	switch *format {
	case "md", "csv":
	default:
		return fmt.Errorf("unknown format %q (want md or csv)", *format)
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
	// (one warmed Runner per concurrency slot, each with an equal share
	// of GOMAXPROCS); the emitted tables are bit-identical either way, so
	// -parallel is purely a wall-clock knob.
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
		cfg.Pool = congest.NewRunnerPool(*parallel)
		defer cfg.Pool.Close()
	}
	switch *scale {
	case "small":
		cfg.Scale = bench.Small
	case "full":
		cfg.Scale = bench.Full
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", *scale)
	}
	exps := bench.All()
	if *only != "" {
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		wanted := strings.Split(*only, ",")
		for i, id := range wanted {
			wanted[i] = strings.TrimSpace(id)
			if !slices.Contains(ids, wanted[i]) {
				return fmt.Errorf("unknown experiment %q in -only (valid: %s)", wanted[i], strings.Join(ids, ", "))
			}
		}
		exps = slices.DeleteFunc(exps, func(e bench.Experiment) bool { return !slices.Contains(wanted, e.ID) })
	}

	start := time.Now()
	for _, e := range exps {
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			switch *format {
			case "md":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Printf("# %s — %s (%s)\n%s\n", t.ID, t.Title, t.PaperRef, t.CSV())
			}
		}
	}
	fmt.Fprintf(os.Stderr, "mdsbench: %d experiment(s), scale=%s, seed=%d, %s\n",
		len(exps), *scale, *seed, time.Since(start).Round(time.Millisecond))
	return nil
}
