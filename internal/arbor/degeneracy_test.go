package arbor_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"arbods/internal/arbor"
	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/rng"
)

// referenceDegeneracy is the lazy-deletion bucket queue that computed
// Degeneracy before the bin-sort peel, kept as the oracle for d. It
// removes a minimum-degree node at every step, so its order differs from
// the peel's; d is a property of the graph and must not.
func referenceDegeneracy(g *graph.Graph) (order []int, degeneracy int) {
	n := g.N()
	order = make([]int, 0, n)
	if n == 0 {
		return order, 0
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue with lazy deletion: buckets[d] holds candidate nodes
	// whose degree was d when appended; entries are validated at pop time
	// (degree mismatch or already-removed means stale). Each degree
	// decrement appends one entry, so total work is O(n + m).
	buckets := make([][]int, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n)
	cur := 0
	for len(order) < n {
		for len(buckets[cur]) == 0 {
			cur++
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		if removed[v] || deg[v] != cur {
			continue
		}
		removed[v] = true
		if deg[v] > degeneracy {
			degeneracy = deg[v]
		}
		order = append(order, v)
		for _, u32 := range g.Neighbors(v) {
			u := int(u32)
			if removed[u] {
				continue
			}
			deg[u]--
			buckets[deg[u]] = append(buckets[deg[u]], u)
			if deg[u] < cur {
				cur = deg[u]
			}
		}
	}
	return order, degeneracy
}

// checkDegeneracy holds Degeneracy to the reference on g: the same d, also
// from DegeneracyOf, an order that is a permutation of the nodes in which
// every node has at most d later neighbors, and Bounds with lo ≤ hi = d.
func checkDegeneracy(g *graph.Graph) error {
	order, d := arbor.Degeneracy(g)
	if _, want := referenceDegeneracy(g); d != want {
		return fmt.Errorf("degeneracy %d, reference %d", d, want)
	}
	if only := arbor.DegeneracyOf(g); only != d {
		return fmt.Errorf("DegeneracyOf %d, Degeneracy %d", only, d)
	}
	if len(order) != g.N() {
		return fmt.Errorf("order has %d nodes, graph %d", len(order), g.N())
	}
	pos := make([]int, g.N())
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if v < 0 || v >= g.N() || pos[v] >= 0 {
			return fmt.Errorf("order is not a permutation: node %d at %d", v, i)
		}
		pos[v] = i
	}
	for v := range g.N() {
		later := 0
		for _, u := range g.Neighbors(v) {
			if pos[u] > pos[v] {
				later++
			}
		}
		if later > d {
			return fmt.Errorf("node %d has %d later neighbors, degeneracy %d", v, later, d)
		}
	}
	if lo, hi := arbor.Bounds(g); lo > hi || hi != d {
		return fmt.Errorf("Bounds = [%d, %d], degeneracy %d", lo, hi, d)
	}
	return nil
}

// degeneracyFamilies makes a small spec of every internal/gen family from
// a size s in [0, 255] and a seed.
var degeneracyFamilies = []func(s int, seed uint64) string{
	func(s int, _ uint64) string { return fmt.Sprintf("path:n=%d", s%60+1) },
	func(s int, _ uint64) string { return fmt.Sprintf("cycle:n=%d", s%60+3) },
	func(s int, _ uint64) string { return fmt.Sprintf("star:n=%d", s%60+2) },
	func(s int, _ uint64) string { return fmt.Sprintf("complete:n=%d", s%12+1) },
	func(s int, seed uint64) string { return fmt.Sprintf("tree:n=%d,seed=%d", s%60+1, seed) },
	func(s int, _ uint64) string { return fmt.Sprintf("ktree:k=%d,d=%d", s%3+1, s/3%4+1) },
	func(s int, _ uint64) string { return fmt.Sprintf("caterpillar:s=%d,l=%d", s%10+1, s/10%4) },
	func(s int, _ uint64) string { return fmt.Sprintf("broom:p=%d,l=%d", s%20+1, s/20%10) },
	func(s int, seed uint64) string { return fmt.Sprintf("forest:n=%d,k=%d,seed=%d", s%60+2, s%5+1, seed) },
	func(s int, _ uint64) string { return fmt.Sprintf("grid:r=%d,c=%d", s%8+1, s/8%7+1) },
	func(s int, _ uint64) string { return fmt.Sprintf("torus:r=%d,c=%d", s%6+3, s/6%5+3) },
	func(s int, _ uint64) string { return fmt.Sprintf("hypercube:d=%d", s%7) },
	func(s int, seed uint64) string {
		return fmt.Sprintf("er:n=%d,p=%g,seed=%d", s%60+2, float64(s%9+1)/20, seed)
	},
	func(s int, seed uint64) string { return fmt.Sprintf("ba:n=%d,m=%d,seed=%d", s%60+6, s%4+1, seed) },
	func(s int, seed uint64) string {
		return fmt.Sprintf("bipartite:a=%d,b=%d,p=%g,seed=%d", s%20+1, s/20%12+1, float64(s%7+1)/10, seed)
	},
	func(s int, seed uint64) string {
		return fmt.Sprintf("geom:n=%d,r=%g,seed=%d", s%60+2, float64(s%5+1)/10, seed)
	},
}

// TestDegeneracyMatchesReference checks the bin-sort peel against the
// bucket queue on every generator family and on random graphs.
func TestDegeneracyMatchesReference(t *testing.T) {
	for i, family := range degeneracyFamilies {
		name, _, _ := strings.Cut(family(0, 1), ":")
		t.Run(name, func(t *testing.T) {
			prop := func(s uint8, seed uint64) bool {
				spec := degeneracyFamilies[i](int(s), seed)
				w, err := gen.Parse(spec)
				if err != nil {
					t.Errorf("%s: %v", spec, err)
					return false
				}
				if err := checkDegeneracy(w.G); err != nil {
					t.Errorf("%s: %v", spec, err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, quickConfig(t, 40)); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		prop := func(nRaw, densRaw uint8, seed uint64) bool {
			n := int(nRaw%80) + 1
			r := rng.New(seed)
			b := graph.NewBuilder(n)
			for range int(densRaw%32) * n / 8 {
				if u, v := r.Intn(n), r.Intn(n); u != v {
					b.AddEdge(u, v)
				}
			}
			g := b.MustBuild()
			if err := checkDegeneracy(g); err != nil {
				t.Errorf("n=%d dens=%d seed=%d: %v", n, densRaw, seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(prop, quickConfig(t, 200)); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDegeneracy times the peel every upload pays (DegeneracyOf), on
// the four serving families at n=20000 with uniform weights: the graphs
// BenchmarkDecode in internal/graph decodes.
func BenchmarkDegeneracy(b *testing.B) {
	for _, spec := range []string{"forest:n=20000,k=3", "ba:n=20000,m=3", "geom:n=20000,r=0.012", "er:n=20000,p=0.0002"} {
		w, err := gen.Parse(spec + ",seed=1/uniform:max=100,seed=1")
		if err != nil {
			b.Fatal(err)
		}
		family, _, _ := strings.Cut(spec, ":")
		b.Run(family, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if arbor.DegeneracyOf(w.G) == 0 {
					b.Fatal("zero degeneracy")
				}
			}
		})
	}
}
