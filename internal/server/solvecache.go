package server

import (
	"sync"

	"arbods"
)

// solveKey identifies one solve answer. Every run-shaping request field
// participates — graph content hash, algorithm, all numeric parameters,
// seed, mode, round cap — after normalize has filled the defaults in, so
// "eps omitted" and "eps: 0.2" share an entry. Presentation fields
// (IncludeDS, Stream) are deliberately absent: the cache stores the full
// answer and the handler shapes the response.
type solveKey struct {
	graphID   string
	algorithm string
	alpha     int
	eps       float64
	t         int
	k         int
	seed      uint64
	mode      string
	maxRounds int
}

// solveAnswer is one cached solve result: the verification receipt and
// the dominating set, both detached from any Runner. Entries are shared
// across responses and must be treated as immutable.
type solveAnswer struct {
	receipt *arbods.Receipt
	ds      []int
}

// solveCache is the response-level LRU: solves are deterministic per
// (graph, algorithm, parameters, seed) — randomized algorithms included,
// since per-node streams derive from (seed, nodeID) — so a repeated
// request can skip the engine entirely and return the byte-identical
// receipt. Keyed by solveKey, bounded by entry count, LRU-evicted.
type solveCache struct {
	mu      sync.Mutex
	answers *lru[solveKey, solveAnswer]
	hits    int64
	misses  int64
}

func newSolveCache(capacity int) *solveCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &solveCache{answers: newLRU[solveKey, solveAnswer](capacity)}
}

// get returns the cached answer for key, counting a hit or miss.
func (c *solveCache) get(key solveKey) (solveAnswer, bool) {
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
func (c *solveCache) put(key solveKey, a solveAnswer) {
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
