package arbods

import (
	"fmt"

	"arbods/internal/verify"
)

// CertTolerance is the relative tolerance for floating-point certificate
// checks.
const CertTolerance = verify.DefaultTol

// IsDominatingSet reports the nodes left undominated by the given
// membership vector (empty result = valid dominating set).
func IsDominatingSet(g *Graph, inSet []bool) (undominated []int) {
	return verify.DominatingSet(g, inSet)
}

// CheckPacking verifies the dual-packing constraint Σ_{v∈N+(u)} x_v ≤ w_u
// for every node u. A feasible packing certifies Σx ≤ OPT (Lemma 2.1).
func CheckPacking(g *Graph, x []float64) error {
	return verify.PackingFeasible(g, x, CertTolerance)
}

// CheckFractionalVertexCover verifies y_u + y_v ≥ 1 for every edge — the
// feasibility side of the Theorem 1.4 reduction.
func CheckFractionalVertexCover(g *Graph, y []float64) error {
	return verify.FractionalVertexCover(g, y, CertTolerance)
}

// MembershipOf extracts the dominating set membership vector from a report.
func MembershipOf(rep *Report) []bool {
	set := make([]bool, len(rep.Result.Outputs))
	for v, out := range rep.Result.Outputs {
		set[v] = out.InDS
	}
	return set
}

// PackingOf extracts the certified packing vector from a report.
func PackingOf(rep *Report) []float64 {
	x := make([]float64, len(rep.Result.Outputs))
	for v, out := range rep.Result.Outputs {
		x[v] = out.Packing
	}
	return x
}

// Check is one stage of a Receipt: a named verification with its outcome.
// Skipped marks a check whose premise does not apply to the run (e.g. the
// ratio check on an algorithm whose bound holds only in expectation);
// skipped checks never fail the receipt.
type Check struct {
	Name    string `json:"name"`
	Pass    bool   `json:"pass"`
	Skipped bool   `json:"skipped,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Receipt is the structured verification record of one run — the form in
// which an answer is handed to a party that should not have to trust the
// solver. It re-derives everything checkable from the graph and the
// report: the coverage proof (every node dominated), the dual-packing
// feasibility that makes PackingSum a lower bound on OPT (Lemma 2.1), and
// the α-dependent ratio bound w(S) ≤ Factor·Σx that deterministic runs
// certify. OK aggregates the non-skipped checks. Receipts are plain data
// with deterministic JSON encoding (no maps), so two runs of the same
// (graph, algorithm, seed) produce byte-identical receipts — the property
// arbods-server's response cache and its clients rely on.
type Receipt struct {
	Algorithm string `json:"algorithm"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`

	SetSize    int     `json:"setSize"`
	SetWeight  int64   `json:"setWeight"`
	PackingSum float64 `json:"packingSum"`
	// CertifiedRatio is SetWeight/PackingSum, the exactly checkable upper
	// bound on the true approximation ratio; 0 when the run produced no
	// packing (Σx = 0, where the ratio would be +Inf).
	CertifiedRatio float64 `json:"certifiedRatio,omitempty"`
	// Factor is the deterministic per-run guarantee being checked
	// ((2α+1)(1+ε) for the Theorem 1.1 family); 0 when the algorithm's
	// bound is in expectation only, in which case the ratio check is
	// skipped.
	Factor         float64 `json:"guaranteeFactor,omitempty"`
	ExpectedFactor float64 `json:"expectedFactor,omitempty"`
	Alpha          int     `json:"alpha,omitempty"`
	Eps            float64 `json:"eps,omitempty"`

	Rounds    int   `json:"rounds"`
	Messages  int64 `json:"messages"`
	TotalBits int64 `json:"totalBits"`

	Checks []Check `json:"checks"`
	OK     bool    `json:"ok"`

	err *CertError
}

// Err returns nil when every applicable check passed, and the first
// failure as a *CertError otherwise — the same error Certify reports.
func (r *Receipt) Err() error {
	if r.err == nil {
		return nil
	}
	return r.err
}

// BuildReceipt re-verifies a report end to end and returns the structured
// verification record: the coverage proof, the packing feasibility, and
// (for deterministic algorithms) the ratio certificate, each as a named
// Check, plus the sizes and bounds a consumer needs to audit the run.
// CLI, bench, and server all verify through this one path; Certify is the
// error-only wrapper.
func BuildReceipt(g *Graph, rep *Report) *Receipt {
	r := &Receipt{
		Algorithm:      rep.Algorithm,
		Nodes:          g.N(),
		Edges:          g.M(),
		SetSize:        len(rep.DS),
		SetWeight:      rep.DSWeight,
		PackingSum:     rep.PackingSum,
		Factor:         rep.Factor,
		ExpectedFactor: rep.ExpectedFactor,
		Alpha:          rep.Alpha,
		Eps:            rep.Eps,
		Rounds:         rep.Result.Rounds,
		Messages:       rep.Result.Messages,
		TotalBits:      rep.Result.TotalBits,
	}
	if rep.PackingSum > 0 {
		r.CertifiedRatio = float64(rep.DSWeight) / rep.PackingSum
	}

	set := MembershipOf(rep)
	und := verify.DominatingSet(g, set)
	if len(und) == 0 {
		r.Checks = append(r.Checks, Check{
			Name: "domination", Pass: true,
			Detail: fmt.Sprintf("all %d nodes dominated by the %d-node set", g.N(), len(rep.DS)),
		})
	} else {
		r.Checks = append(r.Checks, Check{
			Name:   "domination",
			Detail: fmt.Sprintf("%d nodes undominated (first: %d)", len(und), und[0]),
		})
		if r.err == nil {
			r.err = &CertError{Stage: "domination", Detail: und}
		}
	}

	x := PackingOf(rep)
	if err := verify.PackingFeasible(g, x, CertTolerance); err != nil {
		r.Checks = append(r.Checks, Check{Name: "packing", Detail: err.Error()})
		if r.err == nil {
			r.err = &CertError{Stage: "packing", Err: err}
		}
	} else {
		r.Checks = append(r.Checks, Check{
			Name: "packing", Pass: true,
			Detail: fmt.Sprintf("dual packing feasible; Σx=%.6g lower-bounds OPT", rep.PackingSum),
		})
	}

	if rep.Factor > 0 {
		if err := verify.Certificate(g, set, x, rep.Factor, CertTolerance); err != nil {
			r.Checks = append(r.Checks, Check{Name: "ratio", Detail: err.Error()})
			if r.err == nil {
				r.err = &CertError{Stage: "ratio", Err: err}
			}
		} else {
			r.Checks = append(r.Checks, Check{
				Name: "ratio", Pass: true,
				Detail: fmt.Sprintf("w(S)=%d ≤ %.6g·Σx=%.6g (α-bound holds)",
					rep.DSWeight, rep.Factor, rep.Factor*rep.PackingSum),
			})
		}
	} else {
		r.Checks = append(r.Checks, Check{
			Name: "ratio", Skipped: true,
			Detail: "no deterministic per-run guarantee (bound holds in expectation only)",
		})
	}

	r.OK = r.err == nil
	return r
}

// Certify re-verifies a report end to end: the set dominates, the packing
// is feasible, and (for deterministic algorithms) w(DS) ≤ Factor·Σx. It is
// what a downstream user calls to distrust-but-verify any run; BuildReceipt
// returns the same verification as a structured record.
func Certify(g *Graph, rep *Report) error {
	return BuildReceipt(g, rep).Err()
}

// CertError reports which certification stage failed.
type CertError struct {
	Stage  string
	Detail []int
	Err    error
}

func (e *CertError) Error() string {
	if e.Err != nil {
		return "arbods: certification failed at " + e.Stage + ": " + e.Err.Error()
	}
	return "arbods: certification failed at " + e.Stage
}

// Unwrap supports errors.Is/As chains.
func (e *CertError) Unwrap() error { return e.Err }
