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
		"path":        arbods.Path(10),
		"cycle":       arbods.Cycle(10),
		"star":        arbods.Star(10),
		"complete":    arbods.Complete(6),
		"tree":        arbods.RandomTree(10, 1),
		"balanced":    arbods.BalancedTree(2, 3),
		"caterpillar": arbods.Caterpillar(4, 2),
		"broom":       arbods.Broom(5, 8),
		"forest":      arbods.ForestUnion(20, 2, 1),
		"grid":        arbods.Grid(4, 4),
		"torus":       arbods.Torus(3, 3),
		"hypercube":   arbods.Hypercube(3),
		"er":          arbods.ErdosRenyi(20, 0.3, 1),
		"ba":          arbods.BarabasiAlbert(25, 2, 1),
		"bipartite":   arbods.RandomBipartite(5, 5, 0.4, 1),
		"geometric":   arbods.Geometric(25, 0.3, 1),
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
	if g := arbods.DegreeWeights(base, 3, 0); g.Unweighted() {
		t.Fatal("degree weights not applied")
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

	sun := arbods.SunCentralized(w.G)
	if len(sun.DS) == 0 {
		t.Fatal("Sun returned empty set")
	}

	kw, frac, err := arbods.KW05(w.G, 2, arbods.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !kw.AllDominated || frac <= 0 {
		t.Fatalf("KW05 malformed: dominated=%v frac=%g", kw.AllDominated, frac)
	}

	layered, err := arbods.LayeredLowerBoundGadget(8, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if layered.N() != 8+4+2 {
		t.Fatalf("layered gadget n=%d", layered.N())
	}

	ex, err := arbods.ExactSmall(arbods.Cycle(9).G)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Weight != 3 {
		t.Fatalf("exact on C9 = %d, want 3", ex.Weight)
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
		arbods.WithKnownMaxDegree(),
		arbods.WithKnownArboricity(2),
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

// countProc is a minimal custom proc driven through the root facade: each
// node broadcasts once and reports how many neighbors it heard.
type countProc struct {
	ni    arbods.NodeInfo
	heard int64
}

func (p *countProc) Step(round int, in []arbods.Incoming, s *arbods.Sender) bool {
	p.heard += int64(len(in))
	if round == 0 {
		s.Broadcast(arbods.TagOnly(arbods.Tag(16)))
		return false
	}
	return true
}

func (p *countProc) Output() int64 { return p.heard }

// TestContextSurface pins the cancellation surface of the facade:
// Run/RunContext/WithContext for the engine, GetContext/ErrPoolClosed for
// the pool, and BatchContext/RunBatchContext for batches. A server or
// client written against package arbods alone can thread deadlines
// through every layer.
func TestContextSurface(t *testing.T) {
	w := arbods.Cycle(12)
	factory := func(ni arbods.NodeInfo) arbods.Proc[int64] { return &countProc{ni: ni} }

	// The generic Run surface executes custom procs...
	res, err := arbods.Run(w.G, factory, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var _ *arbods.RunResult[int64] = res
	if res.Outputs[0] != 2 {
		t.Fatalf("cycle node heard %d broadcasts, want 2", res.Outputs[0])
	}
	if arbods.BitsUint(255) != 8 || arbods.BitsInt(-1) != 2 || arbods.MaxTags < arbods.MsgTagBits {
		t.Fatal("bit-accounting helpers malformed")
	}

	// ...and RunContext / WithContext abort it with ctx.Err().
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := arbods.RunContext(dead, w.G, factory); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v", err)
	}
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
	if err := pool.BatchContext(dead).Wait(); err != nil {
		t.Fatalf("empty canceled batch err = %v", err)
	}
	pool.Close()
	if _, err := pool.GetContext(context.Background()); !errors.Is(err, arbods.ErrPoolClosed) {
		t.Fatalf("closed pool err = %v, want ErrPoolClosed", err)
	}

	// RunBatchContext checks the context between sequential jobs. (The
	// parallel path prefers free pool capacity over a dead context, so a
	// fresh transient pool would still run its jobs — same rule as
	// GetContext above.)
	if err := arbods.RunBatchContext(dead, 1,
		func(r *arbods.Runner, workers int) error { return nil },
	); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatchContext err = %v", err)
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

// TestBuilderSurface pins NewBuilder/Builder, the documented way to build a
// graph from scratch: a small weighted graph built with it must solve to an
// OK receipt.
func TestBuilderSurface(t *testing.T) {
	var b *arbods.Builder = arbods.NewBuilder(6)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(3, 4).AddEdge(4, 5).AddEdge(5, 0).AddEdge(0, 3)
	for v, w := range []int64{5, 1, 7, 2, 9, 3} {
		b.SetWeight(v, w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 || g.M() != 7 || g.Unweighted() {
		t.Fatalf("built n=%d m=%d unweighted=%v, want a weighted 6-node 7-edge graph", g.N(), g.M(), g.Unweighted())
	}
	rep, err := arbods.WeightedDeterministic(g, 2, 0.2, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if rec := arbods.BuildReceipt(g, rep); !rec.OK {
		t.Fatalf("receipt of a Builder-built graph not OK: %+v", rec)
	}
}

// TestCertifySurface exercises the certificate helpers and error paths.
func TestCertifySurface(t *testing.T) {
	w := arbods.ForestUnion(60, 2, 5)
	rep, err := arbods.WeightedDeterministic(w.G, 2, 0.25, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	set := arbods.MembershipOf(rep)
	x := arbods.PackingOf(rep)
	if err := arbods.CheckCertificate(w.G, set, x, rep.Factor); err != nil {
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
	// Wrong factor must fail at the ratio stage and unwrap cleanly.
	if err := arbods.CheckCertificate(w.G, set, x, 0.0001); err == nil {
		t.Fatal("absurd factor accepted")
	}
}

// crashProc is countProc with one node panicking mid-round, for the
// fault-tolerance surface below.
type crashProc struct{ countProc }

func (p *crashProc) Step(round int, in []arbods.Incoming, s *arbods.Sender) bool {
	if p.ni.ID == 3 && round == 1 {
		panic("surface boom")
	}
	return p.countProc.Step(round, in, s)
}

// TestFaultToleranceSurface pins the robustness surface of the facade:
// typed proc-panic errors (ErrProcPanic / ProcPanicError), Runner
// poisoning and pool replacement, the fault-injection option, and the
// binary snapshot codec — everything the server layer relies on, reachable
// from package arbods alone.
func TestFaultToleranceSurface(t *testing.T) {
	w := arbods.Cycle(12)
	boom := func(ni arbods.NodeInfo) arbods.Proc[int64] { return &crashProc{countProc{ni: ni}} }

	pool := arbods.NewRunnerPool(1)
	defer pool.Close()
	r := pool.Get()
	_, err := arbods.Run(w.G, boom, arbods.WithSeed(1), arbods.WithRunner(r))
	if !errors.Is(err, arbods.ErrProcPanic) {
		t.Fatalf("panicking run err = %v, want ErrProcPanic", err)
	}
	var pe *arbods.ProcPanicError
	if !errors.As(err, &pe) || pe.Round != 1 || pe.Node != 3 || len(pe.Stack) == 0 {
		t.Fatalf("panic detail = %+v", pe)
	}
	if !r.Poisoned() {
		t.Fatal("panicking Runner not poisoned")
	}
	pool.Put(r)
	if pool.Replaced() != 1 {
		t.Fatalf("Replaced = %d, want 1", pool.Replaced())
	}

	// Deterministic fault injection threads through the same option set.
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

// TestArboricitySurface exercises the orientation helpers.
func TestArboricitySurface(t *testing.T) {
	w := arbods.ForestUnion(60, 3, 7)
	order, d := arbods.Degeneracy(w.G)
	if len(order) != w.G.N() || d < 1 || d > 2*3-1 {
		t.Fatalf("degeneracy order/%d malformed", d)
	}
	o := arbods.OrientGreedy(w.G)
	if o.MaxOutDegree() > d {
		t.Fatal("greedy orientation exceeds degeneracy")
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
