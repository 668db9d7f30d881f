package mds

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

// White-box tests pinning the parameter formulas of the unified proc to the
// paper's definitions.

// TestPartialIterationsDefinition: r is the integer with
// (1+ε)^{r-1} ≤ λ(Δ+1) < (1+ε)^r, and 0 iff λ < 1/(Δ+1) (Lemma 4.1's
// "set S = ∅" case).
func TestPartialIterationsDefinition(t *testing.T) {
	prop := func(epsRaw, lambdaRaw uint16, deltaRaw uint16) bool {
		eps := 0.02 + float64(epsRaw%900)/1000.0 // [0.02, 0.92]
		delta := int(deltaRaw % 5000)
		lambda := float64(lambdaRaw%1000+1) / 1000.0 // (0, 1]
		r := partialIterations(eps, lambda, delta)
		target := lambda * float64(delta+1)
		if target < 1 {
			return r == 0
		}
		if r < 1 {
			return false
		}
		lowOK := math.Pow(1+eps, float64(r-1)) <= target*(1+1e-12)
		highOK := target < math.Pow(1+eps, float64(r))*(1+1e-12)
		return lowOK && highOK
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExtensionIterationsReachProbabilityOne: the per-phase iteration count
// must push the sampling probability γ^{i}/(Δ+1) to at least 1 by the last
// iteration — the proof of Lemma 4.6 samples all of Γ then.
func TestExtensionIterationsReachProbabilityOne(t *testing.T) {
	prop := func(gRaw uint16, deltaRaw uint16) bool {
		gamma := 1.1 + float64(gRaw%400)/100.0 // [1.1, 5.1]
		delta := int(deltaRaw % 10000)
		iters := extensionIterations(gamma, delta)
		if iters < 1 {
			return false
		}
		p := math.Pow(gamma, float64(iters-1)) / float64(delta+1)
		return p >= 1-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExtensionPhasesCoverLambda: after t phases the packing multiplier
// γ^t must reach 1/λ — the termination argument of Lemma 4.6.
func TestExtensionPhasesCoverLambda(t *testing.T) {
	prop := func(gRaw, lRaw uint16) bool {
		gamma := 1.2 + float64(gRaw%300)/100.0
		lambda := float64(lRaw%999+1) / 1000.0
		phases := extensionPhases(gamma, lambda)
		if phases < 1 {
			return false
		}
		return math.Pow(gamma, float64(phases)) >= 1/lambda*(1-1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFactorMatchesLemma pins PartialFactor against a hand
// computation for the Theorem 1.1 parameters.
func TestPartialFactorMatchesLemma(t *testing.T) {
	alpha, eps := 3, 0.25
	lambda := 1 / (float64(2*alpha+1) * (1 + eps))
	got := PartialFactor(alpha, eps, lambda)
	want := float64(alpha) / (1/(1+eps) - lambda*float64(alpha+1))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("PartialFactor = %g, want %g", got, want)
	}
	// With the Theorem 1.1 λ, the combined factor bound must equal
	// (2α+1)(1+ε) for the S′ side: 1/λ.
	if math.Abs(1/lambda-float64(2*alpha+1)*(1+eps)) > 1e-9 {
		t.Fatal("λ inversion broken")
	}
}

// TestProcSize pins the per-node footprint of the unified proc: a run
// holds n of them for its whole length, so at n=10⁶ every byte here is a
// megabyte of the solve's peak memory. Shared parameters belong behind
// proc.p, and the Lemma 4.6 extension state in extState, not in the proc.
func TestProcSize(t *testing.T) {
	if size := unsafe.Sizeof(proc{}); size > 96 {
		t.Fatalf("proc is %d bytes, want ≤ 96", size)
	}
}

// TestValidation exercises the constructor argument checks.
func TestValidation(t *testing.T) {
	if err := validateEps(0); err == nil {
		t.Fatal("ε=0 accepted")
	}
	if err := validateEps(1); err == nil {
		t.Fatal("ε=1 accepted")
	}
	if err := validateEps(0.5); err != nil {
		t.Fatal(err)
	}
	if err := validateAlpha(0); err == nil {
		t.Fatal("α=0 accepted")
	}
}
