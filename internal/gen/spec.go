package gen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"arbods/internal/graph"
)

// Parse builds a workload from a compact textual spec, used by the CLI
// tools:
//
//	family:key=value,key=value
//
// Families and their keys (unlisted keys take the defaults shown):
//
//	path:n=100
//	cycle:n=100
//	star:n=100
//	complete:n=20
//	tree:n=100,seed=1
//	ktree:k=2,d=5
//	caterpillar:s=10,l=3
//	broom:p=50,l=100
//	forest:n=100,k=2,seed=1
//	grid:r=10,c=10
//	torus:r=10,c=10
//	hypercube:d=6
//	er:n=100,p=0.05,seed=1
//	ba:n=100,m=3,seed=1
//	bipartite:a=50,b=50,p=0.1,seed=1
//	geom:n=100,r=0.1,seed=1
//
// A weight suffix may follow after a slash:
//
//	forest:n=100,k=3/uniform:max=100,seed=7
//	grid:r=10,c=10/exp:scale=50,seed=7
//	ba:n=200,m=3/degree:factor=5
//
// Parse checks every argument before any generator runs and reports the
// first bad one by name. Sizes are integers in [0, math.MaxInt32]; cycle
// needs n ≥ 3 and torus r, c ≥ 3 (smaller ones are not simple graphs);
// hypercube takes d in [0, 30]; er and bipartite take p in [0, 1], geom
// r ≥ 0; and no family may have more than math.MaxInt32 nodes, the ID
// space graph.DecodeText enforces too. A weight spec may not produce a
// weight above graph.MaxWeight; low values are clamped as the assigners
// document.
func Parse(spec string) (Result, error) {
	graphSpec, weightSpec, hasWeights := strings.Cut(spec, "/")
	build, err := parseGraph(graphSpec)
	if err != nil {
		return Result{}, err
	}
	var weigh func(*graph.Graph) (*graph.Graph, error)
	if hasWeights {
		if weigh, err = parseWeights(weightSpec); err != nil {
			return Result{}, err
		}
	}
	res := build()
	if hasWeights {
		if res.G, err = weigh(res.G); err != nil {
			return Result{}, err
		}
		res.Name += "/" + weightSpec
	}
	return res, nil
}

func splitSpec(s string) (*specArgs, error) {
	family, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	family = strings.TrimSpace(family)
	if family == "" {
		return nil, fmt.Errorf("gen: empty spec")
	}
	a := &specArgs{family: family, kv: make(map[string]string)}
	if rest == "" {
		return a, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("gen: bad argument %q in spec %q", kv, s)
		}
		a.kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return a, nil
}

// specArgs reads one spec's key=value arguments. It keeps the first bad
// argument as err and hands out the default in its place, so a family
// reads all its parameters and checks err once.
type specArgs struct {
	family string
	kv     map[string]string
	err    error
}

func (a *specArgs) fail(format string, v ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("gen: %s: %s", a.family, fmt.Sprintf(format, v...))
	}
}

// intIn returns the integer argument key, or def when it is absent; the
// argument must lie in [lo, hi].
func (a *specArgs) intIn(key string, def, lo, hi int64) int64 {
	v, ok := a.kv[key]
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	switch {
	case err != nil:
		a.fail("argument %s=%q is not an integer", key, v)
	case n < lo:
		a.fail("%s=%d is below its minimum %d", key, n, lo)
	case n > hi:
		a.fail("%s=%d is above its maximum %d", key, n, hi)
	default:
		return n
	}
	return def
}

// size returns a size argument: an integer in [0, math.MaxInt32].
func (a *specArgs) size(key string, def int) int {
	return int(a.intIn(key, int64(def), 0, math.MaxInt32))
}

// floatIn returns the float argument key, or def when it is absent; the
// argument must lie in [lo, hi] (NaN never does).
func (a *specArgs) floatIn(key string, def, lo, hi float64) float64 {
	v, ok := a.kv[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	switch {
	case err != nil:
		a.fail("argument %s=%q is not a number", key, v)
	case !(f >= lo && f <= hi):
		a.fail("%s=%g is outside [%g, %g]", key, f, lo, hi)
	default:
		return f
	}
	return def
}

func (a *specArgs) seed() uint64 {
	v, ok := a.kv["seed"]
	if !ok {
		return 1
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		a.fail("seed %q is not an unsigned integer", v)
	}
	return u
}

// parseGraph checks a graph spec and returns the generator call it names;
// nothing is generated before the call.
func parseGraph(spec string) (func() Result, error) {
	a, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	seed := a.seed()
	var build func() Result
	nodes := int64(0) // node count, checked when a product or sum of sizes
	switch a.family {
	case "path":
		n := a.size("n", 100)
		build = func() Result { return Path(n) }
	case "cycle":
		n := int(a.intIn("n", 100, 3, math.MaxInt32))
		build = func() Result { return Cycle(n) }
	case "star":
		n := a.size("n", 100)
		build = func() Result { return Star(n) }
	case "complete":
		n := a.size("n", 20)
		build = func() Result { return Complete(n) }
	case "tree":
		n := a.size("n", 100)
		build = func() Result { return RandomTree(n, seed) }
	case "ktree":
		k, d := a.size("k", 2), a.size("d", 5)
		nodes = int64(d) + 1
		if k > 1 { // 1 + k + … + k^d, stopping once past the cap
			nodes = 1
			for i, level := 0, int64(1); i < d && nodes <= math.MaxInt32; i++ {
				level *= int64(k)
				nodes += level
			}
		}
		build = func() Result { return BalancedTree(k, d) }
	case "caterpillar":
		s, l := a.size("s", 10), a.size("l", 3)
		nodes = int64(s) * (1 + int64(l))
		build = func() Result { return Caterpillar(s, l) }
	case "broom":
		p, l := a.size("p", 50), a.size("l", 100)
		nodes = int64(max(p, 1)) + int64(l)
		build = func() Result { return Broom(p, l) }
	case "forest":
		n, k := a.size("n", 100), a.size("k", 2)
		build = func() Result { return ForestUnion(n, k, seed) }
	case "grid":
		r, c := a.size("r", 10), a.size("c", 10)
		nodes = int64(r) * int64(c)
		build = func() Result { return Grid(r, c) }
	case "torus":
		r, c := int(a.intIn("r", 10, 3, math.MaxInt32)), int(a.intIn("c", 10, 3, math.MaxInt32))
		nodes = int64(r) * int64(c)
		build = func() Result { return Torus(r, c) }
	case "hypercube":
		d := int(a.intIn("d", 6, 0, 30))
		build = func() Result { return Hypercube(d) }
	case "er":
		n, p := a.size("n", 100), a.floatIn("p", 0.05, 0, 1)
		build = func() Result { return ErdosRenyi(n, p, seed) }
	case "ba":
		n, m := a.size("n", 100), a.size("m", 3)
		build = func() Result { return BarabasiAlbert(n, m, seed) }
	case "bipartite":
		l, r, p := a.size("a", 50), a.size("b", 50), a.floatIn("p", 0.1, 0, 1)
		nodes = int64(l) + int64(r)
		build = func() Result { return RandomBipartite(l, r, p, seed) }
	case "geom":
		n, r := a.size("n", 100), a.floatIn("r", 0.1, 0, math.Inf(1))
		build = func() Result { return Geometric(n, r, seed) }
	default:
		return nil, fmt.Errorf("gen: unknown graph family %q", a.family)
	}
	if nodes > math.MaxInt32 {
		a.fail("%d nodes exceed the %d-node ID space", nodes, math.MaxInt32)
	}
	return build, a.err
}

// parseWeights checks a weight spec and returns the assigner it names.
// The degree family's largest weight depends on the graph, so its
// assigner checks it against graph.MaxWeight before assigning.
func parseWeights(spec string) (func(*graph.Graph) (*graph.Graph, error), error) {
	a, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	seed := a.seed()
	var weigh func(*graph.Graph) (*graph.Graph, error)
	switch a.family {
	case "unit":
		weigh = func(g *graph.Graph) (*graph.Graph, error) { return g, nil }
	case "uniform":
		top := a.intIn("max", 100, math.MinInt64, graph.MaxWeight)
		weigh = func(g *graph.Graph) (*graph.Graph, error) { return UniformWeights(g, top, seed), nil }
	case "exp":
		scale := a.floatIn("scale", 50, math.Inf(-1), math.Inf(1))
		weigh = func(g *graph.Graph) (*graph.Graph, error) { return ExponentialWeights(g, scale, seed), nil }
	case "degree":
		f := a.intIn("factor", 5, math.MinInt64, graph.MaxWeight-1)
		weigh = func(g *graph.Graph) (*graph.Graph, error) {
			if d := int64(g.MaxDegree()); d > 0 && f > (graph.MaxWeight-1)/d {
				return nil, fmt.Errorf("gen: degree: factor=%d puts weights above %d at degree %d", f, graph.MaxWeight, d)
			}
			return DegreeWeights(g, f, seed), nil
		}
	default:
		return nil, fmt.Errorf("gen: unknown weight family %q", a.family)
	}
	return weigh, a.err
}
