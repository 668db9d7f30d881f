package verify_test

import (
	"testing"

	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/verify"
)

func TestDominatingSet(t *testing.T) {
	g := gen.Path(5).G // 0-1-2-3-4
	tests := []struct {
		name string
		set  []bool
		want int // number of undominated nodes
	}{
		{"center-only", []bool{false, true, false, true, false}, 0},
		{"ends", []bool{true, false, false, false, true}, 1}, // node 2 uncovered
		{"empty", make([]bool, 5), 5},
		{"all", []bool{true, true, true, true, true}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := verify.DominatingSet(g, tt.set); len(got) != tt.want {
				t.Fatalf("undominated = %v, want %d nodes", got, tt.want)
			}
		})
	}
}

func TestPackingFeasible(t *testing.T) {
	g := graph.NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).
		SetWeight(0, 2).SetWeight(1, 3).SetWeight(2, 2).MustBuild()
	if err := verify.PackingFeasible(g, []float64{1, 1, 1}, 0); err != nil {
		t.Fatalf("feasible packing rejected: %v", err)
	}
	// Node 1 sees X = 1.5+1.5+1.5 = 4.5 > 3.
	if err := verify.PackingFeasible(g, []float64{1.5, 1.5, 1.5}, 0); err == nil {
		t.Fatal("infeasible packing accepted")
	}
	if err := verify.PackingFeasible(g, []float64{-1, 0, 0}, 0); err == nil {
		t.Fatal("negative packing accepted")
	}
	if err := verify.PackingFeasible(g, []float64{1}, 0); err == nil {
		t.Fatal("wrong-length packing accepted")
	}
}

func TestCertificate(t *testing.T) {
	g := gen.Star(4).G
	set := []bool{true, false, false, false}
	x := []float64{0.5, 0.1, 0.1, 0.1}
	if err := verify.Certificate(g, set, x, 2.0, 0); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if err := verify.Certificate(g, set, x, 1.0, 0); err == nil {
		t.Fatal("violated certificate accepted")
	}
}

func TestFractionalVertexCover(t *testing.T) {
	g := gen.Cycle(4).G
	if err := verify.FractionalVertexCover(g, []float64{0.5, 0.5, 0.5, 0.5}, 1e-12); err != nil {
		t.Fatalf("half-integral cover rejected: %v", err)
	}
	if err := verify.FractionalVertexCover(g, []float64{0.5, 0.4, 0.5, 0.5}, 1e-12); err == nil {
		t.Fatal("infeasible cover accepted")
	}
	if err := verify.FractionalVertexCover(g, []float64{-0.1, 1.1, 1, 1}, 1e-12); err == nil {
		t.Fatal("negative cover accepted")
	}
	if err := verify.FractionalVertexCover(g, []float64{1}, 0); err == nil {
		t.Fatal("wrong-length cover accepted")
	}
}

func TestOutDegreeAtMost(t *testing.T) {
	out := [][]int32{{1, 2}, {2}, {}}
	if err := verify.OutDegreeAtMost(out, 2); err != nil {
		t.Fatal(err)
	}
	if err := verify.OutDegreeAtMost(out, 1); err == nil {
		t.Fatal("out-degree violation accepted")
	}
}

func TestSetHelpers(t *testing.T) {
	g := graph.NewBuilder(3).SetWeight(0, 10).SetWeight(1, 20).SetWeight(2, 30).MustBuild()
	set := []bool{true, false, true}
	if w := verify.SetWeight(g, set); w != 40 {
		t.Fatalf("SetWeight = %d", w)
	}
	if s := verify.PackingSum([]float64{1, 2, 3.5}); s != 6.5 {
		t.Fatalf("PackingSum = %g", s)
	}
}
