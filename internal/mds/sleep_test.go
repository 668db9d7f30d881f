package mds

import (
	"reflect"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
)

// countedProc counts the Steps of a shipped proc and, when awake is set,
// cancels every sleep the proc asks for, so the engine steps it in every
// round until it terminates.
type countedProc struct {
	congest.Proc[Output]
	awake bool
	steps int
}

func (p *countedProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	p.steps++
	done := p.Proc.Step(round, in, s)
	if p.awake {
		congest.SleepUntil(s, round+1)
	}
	return done
}

// solveCounted runs solve with every proc wrapped in a countedProc and
// returns its report and the Steps taken over all nodes.
func solveCounted(t *testing.T, awake bool, solve func() (*Report, error)) (*Report, int) {
	t.Helper()
	var procs []*countedProc
	wrapProc = func(p congest.Proc[Output]) congest.Proc[Output] {
		c := &countedProc{Proc: p, awake: awake}
		procs = append(procs, c)
		return c
	}
	defer func() { wrapProc = nil }()
	rep, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, c := range procs {
		steps += c.steps
	}
	return rep, steps
}

// TestExtensionSleepChangesNothing: Theorems 1.2 and 1.3 as shipped, whose
// extension puts nodes outside Γ to sleep, must equal a run of the same
// procs in which every node is stepped in every round — the whole report,
// round stats, message stats and dropped messages included — while taking
// fewer Steps. Theorem 1.2 runs on a forest union, where λ(Δ+1) < 1 makes
// the extension the whole run (r = 0), and on a preferential-attachment
// graph, where the Lemma 4.1 phase dominates some nodes first (r > 0).
func TestExtensionSleepChangesNothing(t *testing.T) {
	forest := gen.UniformWeights(gen.ForestUnion(600, 3, 4).G, 50, 5)
	ba := gen.UniformWeights(gen.BarabasiAlbert(600, 3, 6).G, 50, 7)
	for _, c := range []struct {
		name    string
		partial bool // whether Lemma 4.1 puts nodes in S
		solve   func(opts ...congest.Option) (*Report, error)
	}{
		{"thm1.2/forest", false, func(o ...congest.Option) (*Report, error) { return WeightedRandomized(forest, 3, 2, o...) }},
		{"thm1.2/ba", true, func(o ...congest.Option) (*Report, error) { return WeightedRandomized(ba, 3, 1, o...) }},
		{"thm1.3/ba", false, func(o ...congest.Option) (*Report, error) { return GeneralGraphs(ba, 3, o...) }},
	} {
		for _, w := range []int{1, 3} {
			opts := []congest.Option{congest.WithSeed(11), congest.WithWorkers(w), congest.WithRoundStats(), congest.WithMessageStats()}
			solve := func() (*Report, error) { return c.solve(opts...) }
			want, all := solveCounted(t, true, solve)
			got, steps := solveCounted(t, false, solve)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: the run whose nodes sleep differs from the one that steps every node", c.name, w)
			}
			if steps >= all {
				t.Errorf("%s workers=%d: %d Steps with sleeping, %d without — no node slept", c.name, w, steps, all)
			}
			if got.PartialWeight > 0 != c.partial {
				t.Errorf("%s: partial set weight %d, want it nonzero: %v", c.name, got.PartialWeight, c.partial)
			}
			if !got.AllDominated {
				t.Errorf("%s workers=%d: nodes left undominated", c.name, w)
			}
			t.Logf("%s workers=%d: %d rounds, %d of %d Steps taken", c.name, w, got.Rounds(), steps, all)
		}
	}
}
