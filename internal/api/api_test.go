package api

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"arbods"
	"arbods/internal/gen"
)

// FuzzSolveRequest pins the request contract the solve cache rests on.
// Strict decoding of arbitrary bytes never panics, and whatever it
// accepts round-trips through the wire form. Normalize is idempotent.
// Two accepted requests share a cache key exactly when their normalized
// graph, algorithm, mode and round cap are equal and so is every
// parameter the algorithm declares in its Params (every parameter, for an
// unknown algorithm): a key that ignored a declared field would serve a
// wrong cached receipt, and one that kept an undeclared or presentation
// field would split a single answer in two. The graph reference stands in
// for the graph ID it resolves to.
func FuzzSolveRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, errA := DecodeSolveRequest(a)
		rb, errB := DecodeSolveRequest(b)
		if errA != nil || errB != nil {
			return
		}
		for _, r := range []*SolveRequest{&ra, &rb} {
			wire, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted request does not encode: %+v: %v", *r, err)
			}
			if back, err := DecodeSolveRequest(wire); err != nil || back != *r {
				t.Fatalf("round trip %s: got %+v (%v), want %+v", wire, back, err, *r)
			}
			Normalize(r, 3)
			again := *r
			Normalize(&again, 3)
			if again != *r {
				t.Fatalf("Normalize not idempotent: %+v, then %+v", *r, again)
			}
		}
		runEqual := ra.Graph == rb.Graph && ra.Algorithm == rb.Algorithm &&
			ra.Mode == rb.Mode && ra.MaxRounds == rb.MaxRounds
		info := lookup(ra.Algorithm)
		for _, p := range []struct {
			name  string
			equal bool
		}{
			{"alpha", ra.Alpha == rb.Alpha}, {"eps", ra.Eps == rb.Eps}, {"t", ra.T == rb.T},
			{"k", ra.K == rb.K}, {"seed", ra.Seed == rb.Seed},
		} {
			if info == nil || slices.Contains(info.Params, p.name) {
				runEqual = runEqual && p.equal
			}
		}
		if keysEqual := Key(ra, ra.Graph) == Key(rb, rb.Graph); keysEqual != runEqual {
			t.Fatalf("keys equal = %v, read fields equal = %v:\n%+v\n%+v", keysEqual, runEqual, ra, rb)
		}
	})
}

// TestParamsTruthful holds every table entry to its Params, the
// declaration Key and Run rest on: a parameter changes an algorithm's run
// if and only if the algorithm declares it. An undeclared one that
// mattered would let the solve cache serve one value's answer to a
// request for another; a declared one that never matters only splits the
// cache, but it also shows that the graphs here are too small to tell.
// Each entry's run is called directly (Run would zero an undeclared
// parameter first) with two values of every parameter, and two answers
// are equal when their receipt JSON and set, or their errors, are equal.
// The graphs are a 3-forest union and a tree, each randomly weighted and
// with unit weights, since thm3.1, lw, lrg, kw05 and tree take unit
// weights only and tree takes forests only.
func TestParamsTruthful(t *testing.T) {
	var graphs []gen.Result
	for _, spec := range []string{
		"forest:n=300,k=3,seed=4/uniform:max=50,seed=4", "forest:n=300,k=3,seed=4",
		"tree:n=300,seed=5/uniform:max=50,seed=5", "tree:n=300,seed=5",
	} {
		w, err := gen.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, w)
	}
	// Each parameter's second value; the first is the normalized default
	// (seed 1).
	second := map[string]func(*SolveRequest){
		"alpha": func(r *SolveRequest) { r.Alpha += 2 },
		"eps":   func(r *SolveRequest) { r.Eps = 0.35 },
		"t":     func(r *SolveRequest) { r.T = 5 },
		"k":     func(r *SolveRequest) { r.K = 4 },
		"seed":  func(r *SolveRequest) { r.Seed = 977 },
	}
	run := func(a AlgorithmInfo, w gen.Result, r SolveRequest) string {
		opts, err := Options(&r)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.run(w.G, &r, append(opts, arbods.WithWorkers(1)))
		if err != nil {
			return "error: " + err.Error()
		}
		receipt, err := json.Marshal(arbods.BuildReceipt(w.G, rep))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s %v", receipt, rep.DS)
	}

	for _, a := range Algorithms {
		for _, p := range a.Params {
			if second[p] == nil {
				t.Errorf("%s declares %q, which is no request parameter", a.Name, p)
			}
		}
		ran := false
		matters := map[string]bool{}
		for _, w := range graphs {
			base := SolveRequest{Algorithm: a.Name, Seed: 1}
			Normalize(&base, DefaultAlpha(w.ArboricityBound, 0))
			want := run(a, w, base)
			ran = ran || !strings.HasPrefix(want, "error: ")
			for p, set := range second {
				other := base
				set(&other)
				if got := run(a, w, other); got != want {
					matters[p] = true
					if !slices.Contains(a.Params, p) {
						t.Errorf("%s on %s: %s is undeclared but changes the answer", a.Name, w.Name, p)
					}
				}
			}
		}
		if !ran {
			t.Errorf("%s ran on none of the test graphs", a.Name)
		}
		for _, p := range a.Params {
			if !matters[p] {
				t.Errorf("%s declares %s, which changes none of its runs here", a.Name, p)
			}
		}
	}
}
