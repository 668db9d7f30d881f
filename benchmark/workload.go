package main

import (
	"fmt"
	"sync"
	"time"
)

// config sizes the workloads. The command line always runs fullSizes; the
// smoke test passes smaller sizes through the same code.
type config struct {
	forestN, baN, serveN int
	// serveWarmup is the untimed closed-loop warm-up before a serve window.
	serveWarmup time.Duration
}

var fullSizes = config{forestN: 1_000_000, baN: 100_000, serveN: 20_000, serveWarmup: 3 * time.Second}

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, and the last set-up is the one measured.
	setupReps = 3
	// minOps is the least number of timed library ops per run, whatever
	// the window: a traced run alternates traced and untraced ops and needs
	// one of each.
	minOps = 2
)

// workload is one set of inputs the benchmark runs. The program receives
// only bytes generated from the seed. Why each exists is in BENCHMARK.json
// and README.md: the two solve workloads split heavy-round engine throughput
// from per-round fixed cost, and the two serve workloads split the read path
// (cache hits and engine runs) from the write path (no engine at all).
type workload struct {
	name string
	run  func(c config, seed uint64, window time.Duration, tr *tracer) *outcome
}

var workloads = []workload{
	{"solve_forest3_1m", runForest},
	{"solve_ba_skew", runBA},
	{"serve_read", runServeRead},
	{"serve_ingest", runServeIngest},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or the daemon sees, reported
// by every workload with tracing off. An op is one decode → solve → receipt
// on the solve workloads and one HTTP request on the serve workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median of setupReps set-ups: inputs generated, server up, uploads and pre-solves done
	{"p50_ms", "ms"},        // median op latency
	{"ops_per_s", "1/s"},    // completed ops per second of measurement
	{"cpu_ms_per_op", "ms"}, // process CPU (user+sys) per completed op
	{"peak_rss_mb", "MB"},   // peak resident set of the process
}

// perLayer are the traced run's metrics, every one reported by every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"graph.decode_bin_ms", "ms"},
	{"graph.decode_text_ms", "ms"},
	{"graph.canon_hash_ms", "ms"},
	{"graph.body_kb", "KB"},
	{"arbor.degeneracy_ms", "ms"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"congest.bits", "count"},
	{"congest.run_ms", "ms"},
	{"congest.round1_ms", "ms"},
	{"congest.round_p50_ms", "ms"},
	{"congest.round_max_ms", "ms"},
	{"congest.msgs_per_s", "1/s"},
	{"congest.parallel_speedup", "ratio"},
	{"congest.parallel_cpu_ratio", "ratio"},
	{"mds.report_ms", "ms"},
	{"mds.ds_weight", "count"},
	{"mds.certified_ratio", "ratio"},
	{"verify.receipt_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.miss_p95_ms", "ms"},
	{"server.upload_bin_p50_ms", "ms"},
	{"server.upload_text_p50_ms", "ms"},
	{"server.p99_ms", "ms"},
	{"server.queue_ms_mean", "ms"},
	{"server.solve_ms_mean", "ms"},
	{"server.total_ms_mean", "ms"},
	{"server.solve_cache_hit_ratio", "ratio"},
	{"server.graph_cache_hit_ratio", "ratio"},
	{"server.builds", "count"},
	{"server.upload_unattributed_ms", "ms"},
	{"go_runtime.alloc_mb", "MB"},
	{"go_runtime.gc_cpu_frac", "ratio"},
	{"go_runtime.idle_cpu_frac", "ratio"},
	{"go_runtime.gc_cycles", "count"},
	{"host.steal_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// maxProblems bounds the failed-check messages a run keeps; the count of
// failures is always exact.
const maxProblems = 10

// outcome is what one workload run measured and checked.
type outcome struct {
	workload string

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	e2e    map[string]float64
	layers map[string]float64
}

func newOutcome(name string) *outcome {
	return &outcome{workload: name, e2e: map[string]float64{}, layers: map[string]float64{}}
}

// op counts one attempted op, and a failure when err is non-nil; the
// message names the workload and the failed field.
func (o *outcome) op(err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", o.workload, err))
	}
	return false
}

// fail records a failed check that is not tied to one op, such as set-up.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, o.workload+": "+fmt.Sprintf(format, args...))
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the end-to-end metrics, or with traced the per-layer ones.
func (o *outcome) result(traced bool) result {
	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layers
	}
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: finite(vals[d.name]), Unit: d.unit}
	}
	return r
}
