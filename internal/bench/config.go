package bench

import (
	"fmt"
	"math"

	"arbods/internal/congest"
)

// Scale selects the experiment sizes.
type Scale int

const (
	// Small keeps every experiment fast enough for CI and `go test`.
	Small Scale = iota + 1
	// Full runs paper-scale instances (seconds to a few minutes in total).
	Full
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed is the base seed; repetitions derive seeds from it.
	Seed uint64
	// Scale selects Small or Full sizes.
	Scale Scale
	// Reps overrides the number of repetitions for randomized algorithms
	// (0 = scale default: 3 for Small, 5 for Full).
	Reps int
	// Runner, when set, is the reusable simulator state every *sequential*
	// CONGEST run of the experiments executes on (congest.WithRunner): the
	// worker pool, arenas, and outbox records are then amortized across
	// the whole experiment sweep instead of being rebuilt per run. The
	// caller owns it (and its Close); nil keeps each run on transient
	// state. Batched runs never touch it — they execute on Runners checked
	// out of Pool.
	Runner *congest.Runner
	// Pool, when set, runs each experiment's independent simulator runs
	// concurrently, at most Pool.Size() at once; nil keeps them strictly
	// sequential. The caller owns it (and its Close), and its warmed
	// Runners carry across every experiment of the sweep. Tables are
	// bit-identical either way: batch jobs write into submission-indexed
	// slots and derive their seeds from the slot index, never from
	// scheduling order, and simulator transcripts are deterministic per
	// (graph, seed, options). The pool splits GOMAXPROCS between its
	// Runners; sizes up to the core count use the machine without
	// oversubscribing it (beyond that the per-Runner share floor of 1
	// starts stacking runs on cores — cmd/mdsbench clamps its flag for
	// that reason).
	Pool *congest.RunnerPool
}

// opts returns the simulator options every sequential experiment run
// starts from: the given seed plus the shared Runner when one is
// configured. Experiments append run-specific options after it. Runs
// submitted through batch must use optsOn with their slot instead.
func (c Config) opts(seed uint64, extra ...congest.Option) []congest.Option {
	return c.optsOn(nil, seed, extra...)
}

// optsOn is opts for a batch job: slot carries the job's pooled Runner
// (handed to the job by batch) and replaces the config-level Runner,
// which concurrent jobs must never share. A nil slot — sequential
// execution — falls back to opts' behavior exactly.
func (c Config) optsOn(slot []congest.Option, seed uint64, extra ...congest.Option) []congest.Option {
	o := make([]congest.Option, 0, 2+len(slot)+len(extra))
	o = append(o, congest.WithSeed(seed))
	if slot != nil {
		o = append(o, slot...)
	} else if c.Runner != nil {
		o = append(o, congest.WithRunner(c.Runner))
	}
	return append(o, extra...)
}

// batch executes n independent jobs, sequentially or across cfg.Pool.
// Job i must derive everything it does from i alone and write its outcome
// into slot i of caller-owned storage; with results (and the first-error
// choice below) pinned to submission slots, the tables assembled
// afterwards are bit-identical to the sequential sweep for every pool
// size. The slot options passed to each job carry the Runner its
// simulator runs must use — jobs thread them through cfg.optsOn. Errors:
// the first one in slot order wins, whatever order the scheduler finished
// the jobs in.
func (c Config) batch(n int, job func(i int, slot []congest.Option) error) error {
	if c.Pool == nil || n <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i, nil); err != nil {
				return err
			}
		}
		return nil
	}
	b := c.Pool.Batch()
	for i := 0; i < n; i++ {
		b.Submit(func(r *congest.Runner) error {
			return job(i, []congest.Option{congest.WithRunner(r)})
		})
	}
	return b.Wait()
}

func (c Config) pick(small, full int) int {
	if c.Scale == Full {
		return full
	}
	return small
}

func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	if c.Scale == Full {
		return 5
	}
	return 3
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) ([]*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "prior-work comparison (§1.1)", E1Comparison},
		{"E2", "rounds vs Δ (Theorem 1.1)", E2RoundsVsDelta},
		{"E3", "approximation vs ε and α (Theorem 1.1)", E3ApproxVsEpsilon},
		{"E4", "time/approximation trade-off (Theorem 1.2)", E4TradeoffT},
		{"E5", "general graphs, k sweep (Theorem 1.3)", E5GeneralK},
		{"E6", "lower-bound construction and reduction (Figure 1, Theorem 1.4)", E6LowerBound},
		{"E7", "trees (Observation A.1)", E7Trees},
		{"E8", "unknown parameters (Remarks 4.4, 4.5)", E8UnknownParams},
		{"E9", "design ablations and CONGEST accounting", E9Ablations},
		{"E10", "weighted instances (Theorem 1.1)", E10Weighted},
	}
}

// fmtF formats a float compactly for table cells.
func fmtF(x float64) string {
	switch {
	case math.IsInf(x, 1):
		return "∞"
	case math.IsNaN(x):
		return "NaN"
	case x == math.Trunc(x) && math.Abs(x) < 1e6:
		return fmt.Sprintf("%.0f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// fmtI formats an int.
func fmtI(x int) string { return fmt.Sprintf("%d", x) }

// fmtI64 formats an int64.
func fmtI64(x int64) string { return fmt.Sprintf("%d", x) }

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
