package arbods_test

import (
	"bytes"
	"testing"

	"arbods"
)

// TestPublicAPIEndToEnd exercises the whole facade the way a downstream
// user would: generate, weight, run, certify, serialize.
func TestPublicAPIEndToEnd(t *testing.T) {
	w := arbods.ForestUnion(300, 3, 42)
	g := arbods.UniformWeights(w.G, 100, 7)

	rep, err := arbods.WeightedDeterministic(g, w.ArboricityBound, 0.2, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := arbods.Certify(g, rep); err != nil {
		t.Fatal(err)
	}
	if rep.CertifiedRatio() > rep.Factor {
		t.Fatalf("ratio %g exceeds factor %g", rep.CertifiedRatio(), rep.Factor)
	}

	var buf bytes.Buffer
	if err := arbods.EncodeGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := arbods.DecodeGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := arbods.WeightedDeterministic(g2, w.ArboricityBound, 0.2, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DSWeight != rep.DSWeight {
		t.Fatalf("round-tripped graph changed the result: %d vs %d", rep2.DSWeight, rep.DSWeight)
	}
}

func TestPublicAPIAllAlgorithms(t *testing.T) {
	w := arbods.ForestUnion(150, 2, 9)
	g := arbods.UniformWeights(w.G, 50, 3)
	alpha := w.ArboricityBound

	runs := []struct {
		name string
		run  func() (*arbods.Report, error)
	}{
		{"weighted-det", func() (*arbods.Report, error) {
			return arbods.WeightedDeterministic(g, alpha, 0.25, arbods.WithSeed(2))
		}},
		{"weighted-rand", func() (*arbods.Report, error) {
			return arbods.WeightedRandomized(g, alpha, 2, arbods.WithSeed(2))
		}},
		{"general", func() (*arbods.Report, error) {
			return arbods.GeneralGraphs(g, 2, arbods.WithSeed(2))
		}},
		{"unknown-delta", func() (*arbods.Report, error) {
			return arbods.UnknownDelta(g, alpha, 0.25, arbods.WithSeed(2))
		}},
		{"unknown-alpha", func() (*arbods.Report, error) {
			return arbods.UnknownAlpha(g, 0.25, arbods.WithSeed(2))
		}},
	}
	for _, tt := range runs {
		t.Run(tt.name, func(t *testing.T) {
			rep, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := arbods.Certify(g, rep); err != nil {
				t.Fatal(err)
			}
		})
	}

	uw := arbods.RandomTree(120, 11)
	tri, err := arbods.TreeThreeApprox(uw.G)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := arbods.ExactForest(uw.G)
	if err != nil {
		t.Fatal(err)
	}
	if tri.DSWeight > 3*opt.Weight {
		t.Fatalf("tree 3-approx violated: %d vs OPT %d", tri.DSWeight, opt.Weight)
	}
}

func TestPublicAPIBaselinesAndTools(t *testing.T) {
	w := arbods.ForestUnion(120, 2, 5)
	lo, hi := arbods.ArboricityBounds(w.G)
	if lo < 1 || hi < lo || lo > 2 {
		t.Fatalf("arboricity bounds [%d,%d] inconsistent with construction α≤2", lo, hi)
	}
	gr := arbods.GreedyCentralized(w.G)
	set := make([]bool, w.G.N())
	for _, v := range gr.DS {
		set[v] = true
	}
	if und := arbods.IsDominatingSet(w.G, set); len(und) > 0 {
		t.Fatalf("greedy invalid: %v", und)
	}

	lw, err := arbods.LWBucketDeterministic(w.G, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	lrg, err := arbods.LRGRandomized(w.G, arbods.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*arbods.Report{lw, lrg} {
		if und := arbods.IsDominatingSet(w.G, arbods.MembershipOf(rep)); len(und) > 0 {
			t.Fatalf("%s invalid", rep.Algorithm)
		}
	}
}

func TestPublicAPILowerBound(t *testing.T) {
	base, err := arbods.LowerBoundGadget(8, 3, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := arbods.BuildLowerBound(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := arbods.UnweightedDeterministic(c.H, 2, 0.2, arbods.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	y := c.ExtractFractionalVC(arbods.MembershipOf(rep))
	if err := arbods.CheckFractionalVertexCover(base, y); err != nil {
		t.Fatal(err)
	}
}
