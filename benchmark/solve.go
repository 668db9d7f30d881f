package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"time"

	"arbods"
	"arbods/internal/gen"
)

// pin is the part of a library op's answer that an optimisation must not
// change: a faster run with another transcript is another computation.
type pin struct {
	Rounds         int
	Messages, Bits int64
	DSWeight       int64
	CertifiedRatio float64
}

// pins are the transcripts of the library workloads at full size and seed 1,
// keyed by input spec (the run seed equals the spec's). Every op of a run
// must agree with the run's first op; a pinned input must also match its pin.
var pins = map[string]pin{
	"forest:n=1000000,k=3,seed=1/uniform:max=100,seed=1": {Rounds: 20, Messages: 58600532, Bits: 662215683, DSWeight: 7497205, CertifiedRatio: 4.553961258888168},
	"ba:n=100000,m=3,seed=1/uniform:max=100,seed=1":      {Rounds: 168, Messages: 16694361, Bits: 201917521, DSWeight: 498395, CertifiedRatio: 10.758989086466743},
}

// diff names the fields in which got differs from want.
func (got pin) diff(want pin) error {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"rounds", got.Rounds, want.Rounds},
		{"messages", got.Messages, want.Messages},
		{"bits", got.Bits, want.Bits},
		{"ds_weight", got.DSWeight, want.DSWeight},
		{"certified_ratio", got.CertifiedRatio, want.CertifiedRatio},
	} {
		if f.got != f.want {
			return fmt.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return nil
}

type solveFunc func(g *arbods.Graph, opts ...arbods.Option) (*arbods.Report, error)

func thm11(alpha int) solveFunc {
	return func(g *arbods.Graph, opts ...arbods.Option) (*arbods.Report, error) {
		return arbods.WeightedDeterministic(g, alpha, 0.2, opts...)
	}
}

func thm12(g *arbods.Graph, opts ...arbods.Option) (*arbods.Report, error) {
	return arbods.WeightedRandomized(g, 3, 2, opts...)
}

// opStats is one library op: decode the ARBCSR01 body, solve on a transient
// Runner, build the receipt.
type opStats struct {
	wall, cpu            time.Duration
	decode, run, receipt time.Duration
	runCPU               time.Duration
	// Traced ops only: the span from the call to the first round callback
	// (run setup plus round 1), the later rounds, and the gap from the
	// last callback to the call's return (output collection and report).
	round1, report time.Duration
	rounds         []time.Duration
	root           int // the op's root span
	pin            pin
}

func libraryOp(body []byte, solve solveFunc, tr *tracer, op int, opts ...arbods.Option) (opStats, error) {
	var st opStats
	settle()
	t0, c0 := time.Now(), cpuTime()
	g, err := arbods.DecodeGraphBinary(bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("decode: %w", err)
	}
	t1, c1 := time.Now(), cpuTime()
	var stamps []time.Time
	if tr != nil {
		stamps = make([]time.Time, 0, 512)
		opts = append(slices.Clip(opts), arbods.WithRoundObserver(func(arbods.RoundStat) {
			stamps = append(stamps, time.Now())
		}))
	}
	rep, err := solve(g, opts...)
	if err != nil {
		return st, fmt.Errorf("solve: %w", err)
	}
	t2, c2 := time.Now(), cpuTime()
	rc := arbods.BuildReceipt(g, rep)
	t3, c3 := time.Now(), cpuTime()
	if !rc.OK {
		return st, fmt.Errorf("receipt not ok: %v", rc.Err())
	}
	st = opStats{
		wall: t3.Sub(t0), cpu: c3 - c0,
		decode: t1.Sub(t0), run: t2.Sub(t1), receipt: t3.Sub(t2), runCPU: c2 - c1,
		pin: pin{Rounds: rc.Rounds, Messages: rc.Messages, Bits: rc.TotalBits,
			DSWeight: rc.SetWeight, CertifiedRatio: rc.CertifiedRatio},
	}
	if tr != nil && len(stamps) > 0 {
		st.root = tr.add("op", "", 0, op, t0, t3)
		tr.add("graph.decode", "", st.root, op, t0, t1)
		run := tr.add("congest.run", "", st.root, op, t1, t2)
		prev := t1
		for i, s := range stamps {
			tr.add("congest.round", strconv.Itoa(i+1), run, op, prev, s)
			if i > 0 {
				st.rounds = append(st.rounds, s.Sub(prev))
			}
			prev = s
		}
		tr.add("mds.report", "", run, op, prev, t2)
		tr.add("verify.receipt", "", st.root, op, t2, t3)
		st.round1, st.report = stamps[0].Sub(t1), t2.Sub(prev)
	}
	return st, nil
}

func runForest(c config, seed uint64, window time.Duration, tr *tracer) *outcome {
	spec := fmt.Sprintf("forest:n=%d,k=3,seed=%d/uniform:max=100,seed=%d", c.forestN, seed, seed)
	return runLibrary("solve_forest3_1m", spec, thm11(3), seed, window, tr)
}

func runBA(c config, seed uint64, window time.Duration, tr *tracer) *outcome {
	spec := fmt.Sprintf("ba:n=%d,m=3,seed=%d/uniform:max=100,seed=%d", c.baN, seed, seed)
	return runLibrary("solve_ba_skew", spec, thm12, seed, window, tr)
}

// runLibrary is the shape of both solve workloads: one caller, one untimed
// warm-up op, then timed ops back to back until the window has passed. A
// traced run traces every other op, adds one op at WithWorkers(1) for the
// parallel ratios, and probes the graph layers standalone.
func runLibrary(name, spec string, solve solveFunc, seed uint64, window time.Duration, tr *tracer) *outcome {
	o := newOutcome(name)
	var body []byte
	if !timedSetups(o, func() error {
		w, err := gen.Parse(spec)
		if err != nil {
			return err
		}
		body, err = encodeBinary(w.G)
		return err
	}) {
		return o
	}

	runSeed := arbods.WithSeed(seed)
	warm, err := libraryOp(body, solve, nil, 0, runSeed)
	if !o.op(err) {
		return o
	}
	if want, ok := pins[spec]; ok {
		if err := warm.pin.diff(want); err != nil {
			o.fail("seed-1 pin: %v", err)
		}
	}

	var traced, plain []opStats
	rt0, host0 := readRuntime(), readHostCPU()
	start := time.Now()
	for i := 0; len(traced)+len(plain) < minOps || time.Since(start) < window; i++ {
		t := tr
		if i%2 == 1 {
			t = nil
		}
		st, err := libraryOp(body, solve, t, i+1, runSeed)
		if err == nil {
			err = st.pin.diff(warm.pin)
		}
		if !o.op(err) {
			return o
		}
		if t != nil {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}
	rt1, host1 := readRuntime(), readHostCPU()
	all := append(slices.Clone(traced), plain...)
	var walls, cpus, total []float64
	for _, st := range all {
		walls = append(walls, ms(st.wall))
		cpus = append(cpus, ms(st.cpu))
		total = append(total, st.wall.Seconds())
	}
	o.e2e["p50_ms"] = median(walls)
	o.e2e["ops_per_s"] = float64(len(all)) / sum(total)
	o.e2e["cpu_ms_per_op"] = median(cpus)
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.layers["host.steal_frac"] = stealFrac(host0, host1)
	if tr == nil {
		return o
	}
	runtimeLayer(o, rt0, rt1)
	w1, err := libraryOp(body, solve, nil, 0, runSeed, arbods.WithWorkers(1))
	if err == nil {
		err = w1.pin.diff(warm.pin)
	}
	if !o.op(err) {
		return o
	}
	g, err := arbods.DecodeGraphBinary(bytes.NewReader(body))
	if err != nil {
		o.fail("probe: decode: %v", err)
		return o
	}
	probeGraphs([]*arbods.Graph{g}, o)
	o.layers["graph.body_kb"] = float64(len(body)) / 1024
	libraryLayers(o, traced, plain, []opStats{w1}, tr.snapshot())
	return o
}

// probeGraphs times the graph and arbor layers standalone, once per graph:
// ARBCSR01 decode, the canonical hash an upload computes (text encoding plus
// sha256), decoding that text, and the degeneracy an upload computes.
func probeGraphs(graphs []*arbods.Graph, o *outcome) {
	var bin, text, canon, degen []float64
	for _, g := range graphs {
		var b bytes.Buffer
		if err := arbods.EncodeGraphBinary(&b, g); err != nil {
			o.fail("probe: encode: %v", err)
			return
		}
		t := time.Now()
		_, errBin := arbods.DecodeGraphBinary(&b)
		bin = append(bin, ms(time.Since(t)))

		var txt bytes.Buffer
		t = time.Now()
		errText := arbods.EncodeGraph(&txt, g)
		sha256.Sum256(txt.Bytes())
		canon = append(canon, ms(time.Since(t)))

		t = time.Now()
		_, errDec := arbods.DecodeGraph(&txt)
		text = append(text, ms(time.Since(t)))

		t = time.Now()
		arbods.Degeneracy(g)
		degen = append(degen, ms(time.Since(t)))
		for _, err := range []error{errBin, errText, errDec} {
			if err != nil {
				o.fail("probe: %v", err)
				return
			}
		}
	}
	o.layers["graph.decode_bin_ms"] = median(bin)
	o.layers["graph.decode_text_ms"] = median(text)
	o.layers["graph.canon_hash_ms"] = median(canon)
	o.layers["arbor.degeneracy_ms"] = median(degen)
}

// libraryLayers reports the congest, mds, verify and trace metrics of traced
// library ops. plain[i] and w1[i] are an untraced op and a WithWorkers(1) op
// on the same input as traced[i]; ratios are taken pairwise.
func libraryLayers(o *outcome, traced, plain, w1 []opStats, spans []span) {
	if len(traced) == 0 {
		return
	}
	var run, round1, rounds, report, receipt, cov []float64
	for _, st := range traced {
		run = append(run, ms(st.run))
		round1 = append(round1, ms(st.round1))
		report = append(report, ms(st.report))
		receipt = append(receipt, ms(st.receipt))
		for _, r := range st.rounds {
			rounds = append(rounds, ms(r))
		}
		cov = append(cov, coverage(spans, st.root))
	}
	p := traced[0].pin
	o.layers["congest.rounds"] = float64(p.Rounds)
	o.layers["congest.messages"] = float64(p.Messages)
	o.layers["congest.bits"] = float64(p.Bits)
	o.layers["congest.run_ms"] = median(run)
	o.layers["congest.round1_ms"] = median(round1)
	o.layers["congest.round_p50_ms"] = median(rounds)
	o.layers["congest.round_max_ms"] = percentile(rounds, 1)
	o.layers["congest.msgs_per_s"] = float64(p.Messages) / (median(run) / 1000)
	o.layers["mds.report_ms"] = median(report)
	o.layers["mds.ds_weight"] = float64(p.DSWeight)
	o.layers["mds.certified_ratio"] = p.CertifiedRatio
	o.layers["verify.receipt_ms"] = median(receipt)
	o.layers["trace.coverage"] = median(cov)

	var overhead, speedup, cpuRatio []float64
	for i := range min(len(traced), len(plain)) {
		overhead = append(overhead, traced[i].wall.Seconds()/plain[i].wall.Seconds()-1)
	}
	for i := range min(len(plain), len(w1)) {
		speedup = append(speedup, w1[i].run.Seconds()/plain[i].run.Seconds())
		cpuRatio = append(cpuRatio, plain[i].runCPU.Seconds()/w1[i].runCPU.Seconds())
	}
	o.layers["trace.overhead_frac"] = median(overhead)
	o.layers["congest.parallel_speedup"] = median(speedup)
	o.layers["congest.parallel_cpu_ratio"] = median(cpuRatio)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
