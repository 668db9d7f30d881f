package gen_test

import (
	"strings"
	"testing"

	"arbods/internal/gen"
)

func TestParseSpecs(t *testing.T) {
	tests := []struct {
		spec  string
		wantN int
	}{
		{"path:n=10", 10},
		{"cycle:n=12", 12},
		{"star:n=7", 7},
		{"complete:n=5", 5},
		{"tree:n=20,seed=3", 20},
		{"ktree:k=2,d=3", 15},
		{"caterpillar:s=4,l=2", 12},
		{"broom:p=5,l=10", 15},
		{"forest:n=30,k=3,seed=2", 30},
		{"grid:r=3,c=4", 12},
		{"torus:r=3,c=3", 9},
		{"hypercube:d=4", 16},
		{"er:n=25,p=0.3,seed=4", 25},
		{"ba:n=40,m=2,seed=5", 40},
		{"bipartite:a=4,b=6,p=0.5,seed=6", 10},
		{"geom:n=15,r=0.4,seed=7", 15},
		{"path", 100}, // defaults apply
		// The smallest sizes a family accepts, and low values the
		// generators clamp.
		{"path:n=0", 0},
		{"cycle:n=3", 3},
		{"hypercube:d=0", 1},
		{"ktree:k=0,d=3", 4},
		{"broom:p=0,l=2", 3},
		{"ba:n=10,m=2147483647", 10},
		{"er:n=4,p=1", 4},
		{"geom:n=4,r=0", 4},
		{"path:n=3/uniform:max=-7", 3},
		{"path:n=3/degree:factor=-2", 3},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			r, err := gen.Parse(tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			if r.G.N() != tt.wantN {
				t.Fatalf("n = %d, want %d", r.G.N(), tt.wantN)
			}
		})
	}
}

func TestParseWeightSuffix(t *testing.T) {
	r, err := gen.Parse("grid:r=4,c=4/uniform:max=9,seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if r.G.Unweighted() {
		t.Fatal("uniform weights not applied")
	}
	for v := 0; v < r.G.N(); v++ {
		if w := r.G.Weight(v); w < 1 || w > 9 {
			t.Fatalf("weight %d out of range", w)
		}
	}
	for _, spec := range []string{
		"path:n=5/unit",
		"path:n=5/exp:scale=10",
		"path:n=5/degree:factor=2",
	} {
		if _, err := gen.Parse(spec); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"martian:n=5",
		"path:n=x",
		"path:n",
		"er:n=10,p=zap",
		"path:n=5/uranium:max=2",
		"tree:n=10,seed=-1",
		// Each of these would panic, build the wrong graph or exhaust
		// memory if it reached its generator.
		"path:n=-5",
		"complete:n=-1",
		"grid:r=-1",
		"caterpillar:s=-1",
		"hypercube:d=-1",
		"cycle:n=1",
		"torus:r=1,c=1",
		"path:n=10/uniform:max=9223372036854775807",
		"geom:n=10,r=-1",
		"er:n=10,p=2",
		"er:n=10,p=-1",
		"ktree:k=2,d=-1",
		"bipartite:a=-1,b=2,p=0.5",
		"hypercube:d=64",
		"hypercube:d=31",
		"ba:n=-1,m=3",
		"er:n=10,p=NaN",
		// Node counts past the int32 ID space, weights past MaxWeight.
		"path:n=2147483648",
		"grid:r=65536,c=65536",
		"ktree:k=2147483647,d=2147483647",
		"path:n=10/degree:factor=1099511627776",
		"star:n=10/degree:factor=200000000000",
	} {
		if _, err := gen.Parse(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

// TestParseErrorNamesParameter pins that a rejected argument is named in
// the error, so a 400 answer tells the caller which one to fix.
func TestParseErrorNamesParameter(t *testing.T) {
	for spec, want := range map[string]string{
		"path:n=-5":                "n=-5",
		"torus:r=10,c=2":           "c=2",
		"er:n=10,p=2":              "p=2",
		"hypercube:d=31":           "d=31",
		"grid:r=65536,c=65536":     "4294967296 nodes",
		"path:n=5/uniform:max=1e3": "max=",
	} {
		_, err := gen.Parse(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", spec, err, want)
		}
	}
}

func TestParseRejectsNonIntegerArgs(t *testing.T) {
	// Regression: a non-integer value for an integer parameter must error,
	// not silently fall back to the default.
	for _, spec := range []string{"grid:r=2.5,c=4", "forest:n=30,k=x"} {
		if _, err := gen.Parse(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}
