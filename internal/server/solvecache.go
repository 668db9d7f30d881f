package server

import (
	"encoding/json"
	"sync"

	"arbods/internal/api"
)

// solveAnswer is one cached solve result: the receipt's JSON and the
// dominating set, both owned by the cache. Entries are shared across
// responses and must be treated as immutable.
type solveAnswer struct {
	receipt json.RawMessage
	ds      []int
}

// solveCache is the response-level LRU: solves are deterministic per
// (graph, algorithm, parameters, seed) — randomized algorithms included,
// since per-node streams derive from (seed, nodeID) — so a repeated
// request can skip the engine entirely and return the byte-identical
// receipt. Keyed by api.Key (the normalized request with
// the graph ID in place of its reference; presentation fields cleared,
// since the cache stores the full answer and the handler shapes the
// response), bounded by entry count, LRU-evicted.
type solveCache struct {
	mu      sync.Mutex
	answers *lru[api.SolveRequest, solveAnswer]
	hits    int64
	misses  int64
}

func newSolveCache(capacity int) *solveCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &solveCache{answers: newLRU[api.SolveRequest, solveAnswer](capacity)}
}

// get returns the cached answer for key, counting a hit or miss.
func (c *solveCache) get(key api.SolveRequest) (solveAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.answers.get(key)
	if !ok {
		c.misses++
		return solveAnswer{}, false
	}
	c.hits++
	return a, true
}

// put stores an answer (first writer wins on a race; the answers are
// identical by the determinism contract, so it does not matter which).
func (c *solveCache) put(key api.SolveRequest, a solveAnswer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.answers.put(key, a)
}

// counters returns the cumulative hit/miss counts.
func (c *solveCache) counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
