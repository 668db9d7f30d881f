// Command benchmark measures arbods end to end and layer by layer on four
// workloads: a 10^6-node Theorem 1.1 solve, a skewed many-round Theorem 1.2
// solve, serving reads and serving ingest (see workload.go and README.md).
// It drives the program only through public functions: the arbods facade,
// internal/gen for inputs, and internal/server.New behind httptest.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload serve_read --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh --seed 1                     # every workload, each in a child process
//	bash benchmark/run.sh --seed 1 --trace 1 --out DIR # traced: DIR/spans.json, DIR/layers.json
//	bash benchmark/run.sh -compare A1.json A2.json -- B1.json B2.json
//
// A single-workload run prints each metric as "workload name value unit",
// then one JSON line {"correct","attempted","failed","metrics"}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1. Every
// run checks the program's answers, and exits 1 when a check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the measurement window when --seconds is not given; it
// matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Int("seconds", defaultSeconds, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run, reporting the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "traced runs: write spans and per-layer metrics as JSON into this directory")
	compare := fs.Bool("compare", false, "compare result files: -compare A1.json … -- B1.json …")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want --workload NAME --seed N --seconds N --trace 0|1 [--out DIR]")
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	if *name == "" {
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	return runOne(w, fullSizes, *seed, window, *trace == 1, *out, stdout, stderr)
}

// runOne runs one workload in this process and prints its result.
func runOne(w workload, c config, seed uint64, window time.Duration, traced bool, out string, stdout, stderr io.Writer) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	o := w.run(c, seed, window, tr)
	res := o.result(traced)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(stdout, "%-18s %-31s %16.4f %s\n", w.name, name, v, unit)
	}
	for _, d := range defs {
		line(d.name, res.Metrics[d.name].Value, d.unit)
	}
	steal := o.layers["host.steal_frac"]
	if !traced {
		line("host.steal_frac", steal, "ratio")
	}
	if steal > 0.05 {
		fmt.Fprintf(stderr, "%s: WARNING: the host stole %.1f%% of CPU time during the measurement\n", w.name, 100*steal)
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "FAIL", p)
	}
	if traced && out != "" {
		if err := writeJSON(filepath.Join(out, "spans_"+w.name+".json"), tr.snapshot()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	if !res.Correct {
		return 1
	}
	return 0
}

// record is one run of every workload: the last line of the all-workload
// mode, the unit -compare reads, and with --trace 1 the layers.json file.
type record struct {
	Correct   bool              `json:"correct"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Host      hostInfo          `json:"host"`
	Workloads map[string]result `json:"workloads"`
}

// runAll runs every workload one after another, each in a child process of
// its own so that peak memory and GC state belong to one workload.
func runAll(seed uint64, seconds, trace int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	host0 := readHostCPU()
	rec := record{Correct: true, Seed: seed, Seconds: seconds, Trace: trace, Workloads: map[string]result{}}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", out}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		last := lines[len(lines)-1]
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprint(stdout, buf.String())
			fmt.Fprintf(stderr, "FAIL %s: no result (%v)\n", w.name, runErr)
			rec.Correct = false
			continue
		}
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		rec.Workloads[w.name] = r
		rec.Correct = rec.Correct && r.Correct && runErr == nil
	}
	rec.Host = currentHost()
	rec.Host.StealFrac = stealFrac(host0, readHostCPU())
	if trace == 1 && out != "" {
		if err := gatherTrace(out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// gatherTrace writes DIR/layers.json and merges the children's span files
// into DIR/spans.json, keyed by workload.
func gatherTrace(dir string, rec record) error {
	spans := map[string]json.RawMessage{}
	for _, w := range workloads {
		p := filepath.Join(dir, "spans_"+w.name+".json")
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		spans[w.name] = b
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), spans); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), rec)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
