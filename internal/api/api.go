// Package api is the solve contract shared by arbods-server, its Go
// client (arbods/client) and cmd/mdsrun, declared once so the three
// cannot drift: the POST /v1/solve request with its defaults and cache
// key, the graph and algorithm descriptions, the answer and error
// envelopes, the ARBCSR01 content type, and the table of servable
// algorithms that turns a request into a library run.
package api

import (
	"bytes"
	"encoding/json"
)

// BinaryContentType is the ARBCSR01 wire type for graph upload and
// download — the same checksummed codec the snapshot files use.
const BinaryContentType = "application/x-arbods-csr"

// SolveRequest asks for one algorithm run on one graph.
type SolveRequest struct {
	// Graph references the input: "sha256:<hex>" (a previously uploaded
	// or cached graph), "corpus:<name>" (a file from the corpus
	// directory), or "spec:<gen-spec>" (a generator spec like
	// "forest:n=1000,k=3").
	Graph string `json:"graph"`
	// Algorithm is one of the Algorithms names (default "thm1.1").
	Algorithm string `json:"algorithm,omitempty"`

	// Alpha pins the arboricity bound (0 = the graph's certified
	// default: generator bound, else degeneracy).
	Alpha int     `json:"alpha,omitempty"`
	Eps   float64 `json:"eps,omitempty"`  // default 0.2
	T     int     `json:"t,omitempty"`    // thm1.2 (default 2)
	K     int     `json:"k,omitempty"`    // thm1.3 / kw05 (default 2)
	Seed  uint64  `json:"seed,omitempty"` // run seed (deterministic per seed)

	// Mode is "congest" (default, strict bandwidth), "audit", or "local".
	Mode      string `json:"mode,omitempty"`
	MaxRounds int    `json:"maxRounds,omitempty"`

	// IncludeDS adds the dominating set's node IDs to the response
	// (receipts always carry the set size and weight).
	IncludeDS bool `json:"includeDS,omitempty"`
	// Stream switches the response to NDJSON: one line per simulated
	// round ({"round":…,"messages":…,"bits":…,"activeNodes":…}), then a
	// final {"result":…} line. Streamed solves bypass the solve cache —
	// the round progress is the point, and a cached answer has none.
	Stream bool `json:"stream,omitempty"`
}

// DecodeSolveRequest strictly decodes a request body: unknown fields are
// an error, so a misspelled parameter cannot silently run the default.
func DecodeSolveRequest(raw []byte) (req SolveRequest, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return req, err
}

// Normalize fills the request's defaulted fields in place; alpha is the
// graph's certified default α (see DefaultAlpha). Cache keys are built
// from the normalized form, so "eps omitted" and "eps: 0.2" are the same
// request.
func Normalize(r *SolveRequest, alpha int) {
	if r.Algorithm == "" {
		r.Algorithm = "thm1.1"
	}
	if r.Alpha == 0 {
		r.Alpha = alpha
	}
	if r.Eps == 0 {
		r.Eps = 0.2
	}
	if r.T == 0 {
		r.T = 2
	}
	if r.K == 0 {
		r.K = 2
	}
	if r.Mode == "" {
		r.Mode = "congest"
	}
}

// Key is the solve-cache key of a normalized request: the request itself,
// with the resolved graph ID in place of the reference and the
// presentation fields (IncludeDS, Stream) cleared. Every run-shaping
// field participates, so requests that normalize equal share one answer
// and unequal ones never collide.
func Key(r SolveRequest, graphID string) SolveRequest {
	r.Graph = graphID
	r.IncludeDS, r.Stream = false, false
	return r
}

// DefaultAlpha is the α a solve uses when the request pins none: the
// generator-certified bound when there is one, else the degeneracy
// (α ≤ degeneracy ≤ 2α−1), else 1.
func DefaultAlpha(bound, degeneracy int) int {
	if bound > 0 {
		return bound
	}
	return max(degeneracy, 1)
}

// GraphInfo describes one cached graph.
type GraphInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	// Alpha is the certified arboricity bound solves default to
	// (DefaultAlpha of the graph).
	Alpha int   `json:"alpha"`
	Hits  int64 `json:"hits,omitempty"`
	// New reports whether an upload inserted the graph (false = already
	// resident under the same content hash).
	New bool `json:"new,omitempty"`
}

// SolveResponse is the answer-with-proof envelope. The receipt travels as
// raw JSON, so relaying or re-encoding the envelope cannot perturb a
// single receipt byte — the property every cross-replica identity check
// rests on.
type SolveResponse struct {
	Graph GraphInfo `json:"graph"`
	// CacheHit reports whether the graph's built CSR was already
	// resident (the repeat-query fast path).
	CacheHit bool `json:"cacheHit"`
	// SolveCached reports whether the whole answer came from the solve
	// cache — no engine run happened for this response.
	SolveCached bool `json:"solveCached,omitempty"`
	// ServedBy is the advertised URL of the daemon that executed (or
	// cache-served) the solve; empty on a standalone server. Proxied
	// marks answers that were forwarded to an owner daemon — determinism
	// makes the distinction invisible in the receipt bytes.
	ServedBy string `json:"servedBy,omitempty"`
	Proxied  bool   `json:"proxied,omitempty"`
	Seed     uint64 `json:"seed"`
	DS       []int  `json:"ds,omitempty"`
	// ReceiptBytes is the arbods.Receipt recomputed from the graph and
	// the run; byte-identical across repeats of the same request, whether
	// the answer was computed, cache-served or proxied.
	ReceiptBytes json.RawMessage `json:"receipt"`
}

// ErrorBody is the uniform error envelope: a human-readable message plus
// a stable machine-readable code, the same shape on every /v1/ handler so
// clients switch on code, not on message text.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}
