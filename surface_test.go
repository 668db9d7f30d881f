package arbods_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"arbods"
	"arbods/internal/faultinject"
)

// TestGeneratorSurface exercises every generator wrapper of the facade.
func TestGeneratorSurface(t *testing.T) {
	gens := map[string]arbods.Workload{
		"path":      arbods.Path(10),
		"tree":      arbods.RandomTree(10, 1),
		"forest":    arbods.ForestUnion(20, 2, 1),
		"grid":      arbods.Grid(4, 4),
		"ba":        arbods.BarabasiAlbert(25, 2, 1),
		"geometric": arbods.Geometric(25, 0.3, 1),
	}
	for name, w := range gens {
		if w.G == nil || w.Name == "" {
			t.Fatalf("%s: malformed workload", name)
		}
	}
	base := gens["grid"].G
	if g := arbods.ExponentialWeights(base, 10, 2); g.Unweighted() {
		t.Fatal("exponential weights not applied")
	}
	if g := arbods.UniformWeights(base, 10, 2); g.Unweighted() {
		t.Fatal("uniform weights not applied")
	}
}

// TestAlgorithmSurface exercises the remaining algorithm wrappers and the
// option re-exports.
func TestAlgorithmSurface(t *testing.T) {
	w := arbods.ForestUnion(80, 2, 3)

	rep, err := arbods.UnweightedDeterministic(w.G, 2, 0.25,
		arbods.WithSeed(1), arbods.WithWorkers(2), arbods.WithMaxRounds(10_000),
		arbods.WithRoundStats(), arbods.WithMessageStats(), arbods.WithBandwidth(256))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.RoundStats) == 0 || len(rep.Result.MessageStats) == 0 {
		t.Fatal("stats options not honored")
	}

	trunc, err := arbods.TruncatedUnweighted(w.G, 2, 0.25, 2, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if und := arbods.IsDominatingSet(w.G, arbods.MembershipOf(trunc)); len(und) > 0 {
		t.Fatal("truncated run not dominating")
	}

	kw, frac, err := arbods.KW05(w.G, 2, arbods.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !kw.AllDominated || frac <= 0 {
		t.Fatalf("KW05 malformed: dominated=%v frac=%g", kw.AllDominated, frac)
	}

	ex, err := arbods.ExactSmall(arbods.Grid(3, 3).G)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Weight != 3 {
		t.Fatalf("exact on the 3×3 grid = %d, want 3", ex.Weight)
	}
}

// TestOptionSurface pins the complete root option set: every congest
// option the library accepts must be constructible and honored through
// the facade, so a server or client written against package arbods never
// needs to reach into internal/congest.
func TestOptionSurface(t *testing.T) {
	w := arbods.ForestUnion(100, 2, 3)
	r := arbods.NewRunner()
	defer r.Close()

	var streamed []arbods.RoundStat
	opts := []arbods.Option{
		arbods.WithSeed(1),
		arbods.WithWorkers(2),
		arbods.WithMode(arbods.CongestAudit),
		arbods.WithBandwidth(512),
		arbods.WithMaxRounds(10_000),
		arbods.WithRoundStats(),
		arbods.WithMessageStats(),
		arbods.WithRoundObserver(func(rs arbods.RoundStat) { streamed = append(streamed, rs) }),
		arbods.WithRunner(r),
	}
	rep, err := arbods.WeightedDeterministic(w.G, 2, 0.25, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != rep.Rounds() {
		t.Fatalf("observer saw %d rounds, run took %d", len(streamed), rep.Rounds())
	}
	if len(rep.Result.RoundStats) != rep.Rounds() || len(rep.Result.MessageStats) == 0 {
		t.Fatal("stats options not honored")
	}

	// A report is ordinary heap memory: it must be unchanged by the
	// Runner's next run.
	wantW := rep.DSWeight
	wantOut := slices.Clone(rep.Result.Outputs)
	if _, err := arbods.WeightedDeterministic(w.G, 2, 0.25,
		arbods.WithSeed(99), arbods.WithRunner(r)); err != nil {
		t.Fatal(err)
	}
	if rep.DSWeight != wantW || !slices.Equal(rep.Result.Outputs, wantOut) {
		t.Fatal("report changed under the Runner's next run")
	}
	var _ *arbods.Result = rep.Result // the root Result alias is the report's type
}

// TestContextSurface pins the cancellation surface of the facade:
// WithContext for runs, GetContext/ErrPoolClosed for the pool. A server or
// client written against package arbods alone can thread deadlines through
// every layer.
func TestContextSurface(t *testing.T) {
	w := arbods.ForestUnion(12, 2, 1)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := arbods.WeightedDeterministic(w.G, 2, 0.25, arbods.WithContext(dead)); !errors.Is(err, context.Canceled) {
		t.Fatalf("algorithm wrapper under WithContext err = %v", err)
	}

	// Pool checkouts are cancellable and fail fast once the pool closes.
	pool := arbods.NewRunnerPool(1)
	r, err := pool.GetContext(dead) // free capacity beats a dead context
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(r)
	pool.Close()
	if _, err := pool.GetContext(context.Background()); !errors.Is(err, arbods.ErrPoolClosed) {
		t.Fatalf("closed pool err = %v, want ErrPoolClosed", err)
	}
}

// TestReceiptSurface exercises BuildReceipt: the structured verification
// record must agree with Certify and carry every check.
func TestReceiptSurface(t *testing.T) {
	w := arbods.ForestUnion(60, 2, 5)
	rep, err := arbods.WeightedDeterministic(w.G, 2, 0.25, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := arbods.BuildReceipt(w.G, rep)
	if !rec.OK || rec.Err() != nil {
		t.Fatalf("valid run's receipt not OK: %+v", rec)
	}
	if rec.SetSize != len(rep.DS) || rec.SetWeight != rep.DSWeight || rec.Rounds != rep.Rounds() {
		t.Fatalf("receipt disagrees with report: %+v", rec)
	}
	byName := map[string]arbods.Check{}
	for _, c := range rec.Checks {
		byName[c.Name] = c
	}
	for _, name := range []string{"domination", "packing", "ratio"} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("receipt missing %q check", name)
		}
		if !c.Pass && !c.Skipped {
			t.Fatalf("check %q failed on a valid run: %+v", name, c)
		}
	}
	if byName["ratio"].Skipped {
		t.Fatal("deterministic run must not skip the ratio check")
	}

	// Expectation-only bounds skip the ratio check but still verify
	// coverage and packing.
	rr, err := arbods.WeightedRandomized(w.G, 2, 1, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rrec := arbods.BuildReceipt(w.G, rr)
	if !rrec.OK {
		t.Fatalf("randomized run's receipt not OK: %+v", rrec)
	}
	for _, c := range rrec.Checks {
		if c.Name == "ratio" && !c.Skipped {
			t.Fatal("expectation-only run must skip the ratio check")
		}
	}

	// A sabotaged copy of the report fails with the same typed error
	// Certify reports.
	res := *rep.Result
	res.Outputs = slices.Clone(res.Outputs)
	bad := *rep
	bad.Result = &res
	for v := range bad.Result.Outputs {
		if bad.Result.Outputs[v].InDS {
			bad.Result.Outputs[v].InDS = false
			break
		}
	}
	brec := arbods.BuildReceipt(w.G, &bad)
	if brec.OK || brec.Err() == nil {
		t.Fatal("sabotaged report's receipt OK")
	}
	var ce *arbods.CertError
	if !errors.As(brec.Err(), &ce) || ce.Stage != "domination" {
		t.Fatalf("want domination CertError, got %v", brec.Err())
	}
	if (arbods.Certify(w.G, &bad) == nil) != brec.OK {
		t.Fatal("Certify and BuildReceipt disagree")
	}
}

// TestCertifySurface exercises the certificate helpers and error paths.
func TestCertifySurface(t *testing.T) {
	w := arbods.ForestUnion(60, 2, 5)
	rep, err := arbods.WeightedDeterministic(w.G, 2, 0.25, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := arbods.Certify(w.G, rep); err != nil {
		t.Fatal(err)
	}
	if err := arbods.CheckPacking(w.G, arbods.PackingOf(rep)); err != nil {
		t.Fatal(err)
	}
	// A sabotaged report must fail certification with a typed error.
	bad := *rep
	for v := range rep.Result.Outputs {
		if rep.Result.Outputs[v].InDS {
			outs := make([]arbods.NodeOutput, len(rep.Result.Outputs))
			copy(outs, rep.Result.Outputs)
			outs[v].InDS = false
			res := *rep.Result
			res.Outputs = outs
			bad.Result = &res
			break
		}
	}
	err = arbods.Certify(w.G, &bad)
	if err == nil {
		t.Fatal("sabotaged report certified")
	}
	var ce *arbods.CertError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CertError, got %T", err)
	}
	if ce.Error() == "" {
		t.Fatal("empty error string")
	}
	// An absurd factor must fail at the ratio stage and unwrap cleanly.
	tight := *rep
	tight.Factor = 0.0001
	if err := arbods.Certify(w.G, &tight); !errors.As(err, &ce) || ce.Stage != "ratio" || errors.Unwrap(err) == nil {
		t.Fatalf("absurd factor: err = %v, want a ratio-stage CertError", err)
	}
}

// TestFaultToleranceSurface pins the robustness surface of the facade:
// typed proc-panic errors (ErrProcPanic / ProcPanicError), Runner
// poisoning and pool replacement, the fault-injection option, and the
// binary snapshot codec — everything the server layer relies on, reachable
// from package arbods alone.
func TestFaultToleranceSurface(t *testing.T) {
	w := arbods.ForestUnion(12, 2, 1)

	// A panic injected at round 1 fails its run with a typed error.
	pool := arbods.NewRunnerPool(1)
	defer pool.Close()
	r, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	boom := faultinject.New(1)
	boom.Arm("congest.step", faultinject.Fault{Round: 1, Panic: "surface boom"})
	_, err = arbods.WeightedDeterministic(w.G, 2, 0.25, arbods.WithSeed(1), arbods.WithRunner(r), arbods.WithFaultInjection(boom))
	if !errors.Is(err, arbods.ErrProcPanic) {
		t.Fatalf("panicking run err = %v, want ErrProcPanic", err)
	}
	var pe *arbods.ProcPanicError
	if !errors.As(err, &pe) || pe.Round != 1 || pe.Node != -1 || len(pe.Stack) == 0 {
		t.Fatalf("panic detail = %+v", pe)
	}
	if !r.Poisoned() {
		t.Fatal("panicking Runner not poisoned")
	}
	pool.Put(r)
	if pool.Replaced() != 1 {
		t.Fatalf("Replaced = %d, want 1", pool.Replaced())
	}

	// An injected error fails the run the same way every time.
	reg := faultinject.New(1)
	reg.Arm("congest.step", faultinject.Fault{Round: 0, Err: faultinject.ErrInjected})
	if _, err := arbods.WeightedDeterministic(w.G, 1, 0.25, arbods.WithFaultInjection(reg)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected run err = %v, want ErrInjected", err)
	}

	// The binary snapshot codec round-trips through the facade.
	var buf bytes.Buffer
	if err := arbods.EncodeGraphBinary(&buf, w.G); err != nil {
		t.Fatal(err)
	}
	g2, err := arbods.DecodeGraphBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != w.G.N() || g2.M() != w.G.M() {
		t.Fatalf("binary round trip: n=%d m=%d, want n=%d m=%d", g2.N(), g2.M(), w.G.N(), w.G.M())
	}
}

// TestArboricitySurface exercises the arboricity helpers.
func TestArboricitySurface(t *testing.T) {
	w := arbods.ForestUnion(60, 3, 7)
	order, d := arbods.Degeneracy(w.G)
	if len(order) != w.G.N() || d < 1 || d > 2*3-1 {
		t.Fatalf("degeneracy order/%d malformed", d)
	}
	lo, hi := arbods.ArboricityBounds(w.G)
	if lo < 1 || hi < lo {
		t.Fatalf("bounds [%d,%d]", lo, hi)
	}
	if arbods.MaxWeight <= 0 {
		t.Fatal("MaxWeight must be positive")
	}
	if arbods.CertTolerance <= 0 {
		t.Fatal("CertTolerance must be positive")
	}
}
