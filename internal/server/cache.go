package server

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"

	"arbods"
	"arbods/internal/arbor"
	"arbods/internal/gen"
)

// graphEntry is one built graph resident in the cache: the CSR itself plus
// the metadata a solve needs (the arboricity bound the construction
// certifies, or the degeneracy fallback computed once at build time).
type graphEntry struct {
	id    string // graph.ID: "sha256:<hex>" over the ARBCSR01 encoding
	name  string // corpus or spec reference that produced it ("" for uploads)
	g     *arbods.Graph
	bound int // generator-certified α (0 = none)
	degen int // degeneracy, the certified α fallback (computed at insert)
	hits  int64
}

// view snapshots the entry as a value, safe to read after the cache
// mutex is released (hits and name on the live entry keep moving under
// concurrent requests); callers must hold the cache mutex.
func (e *graphEntry) view() graphEntry { return *e }

// graphCache is the content-addressed store of built graph.Graph CSRs.
// Keys are graph.ID — sha256 of the ARBCSR01 encoding, the one canonical
// byte form — so the same graph uploaded twice, as text or binary, or
// reached once by upload and once by generator spec, builds exactly once;
// repeat solve requests skip the build entirely (the ~255ms that
// dominates a cold million-node request). Secondary keys map corpus
// names and generator specs to their ID, so by-name requests hit without
// re-reading or re-generating. Eviction is LRU at a fixed entry capacity.
type graphCache struct {
	mu      sync.Mutex
	entries *lru[string, *graphEntry]
	byName  map[string]string // "corpus:x" / "spec:y" → id
	hits    int64
	misses  int64
}

func newGraphCache(capacity int) *graphCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &graphCache{
		entries: newLRU[string, *graphEntry](capacity),
		byName:  make(map[string]string),
	}
}

// getID returns the entry under id, counting a solve-path hit or miss.
func (c *graphCache) getID(id string) (graphEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.get(id)
	if !ok {
		c.misses++
		return graphEntry{}, false
	}
	e.hits++
	c.hits++
	return e.view(), true
}

// getName returns the entry under a secondary name key ("corpus:…",
// "spec:…"), counting a hit; a miss is not counted here because the
// caller proceeds to build and insert (insert counts it).
func (c *graphCache) getName(name string) (graphEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.byName[name]
	if !ok {
		return graphEntry{}, false
	}
	e, ok := c.entries.get(id)
	if !ok { // name outlived an evicted entry
		delete(c.byName, name)
		return graphEntry{}, false
	}
	e.hits++
	c.hits++
	return e.view(), true
}

// insert stores a freshly built graph, counting the build as a cache miss
// when countMiss is set (solve path; uploads pre-populate without skewing
// the solve-path counters). If the id is already resident the existing
// entry wins — the build raced with another request — and the name key is
// attached to it. Returns the resident entry and whether it already
// existed.
func (c *graphCache) insert(e *graphEntry, countMiss bool) (graphEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if countMiss {
		c.misses++
	}
	if old, ok := c.entries.get(e.id); ok {
		if e.name != "" {
			c.byName[e.name] = old.id
			if old.name == "" {
				old.name = e.name
			}
		}
		old.hits++
		return old.view(), true
	}
	if e.name != "" {
		c.byName[e.name] = e.id
	}
	if ev, ok := c.entries.put(e.id, e); ok && ev.name != "" && c.byName[ev.name] == ev.id {
		delete(c.byName, ev.name)
	}
	return e.view(), false
}

// snapshot returns views of the resident entries, most recently used
// first, and the cumulative solve-path hit/miss counters.
func (c *graphCache) snapshot() (entries []graphEntry, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.each(func(e *graphEntry) { entries = append(entries, e.view()) })
	return entries, c.hits, c.misses
}

// corpusName restricts by-name corpus references to plain file names —
// no separators, no traversal, nothing hidden.
var corpusName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// buildEntry constructs the cache entry for a built graph whose graph.ID
// is id under the given name key, computing the degeneracy fallback once
// so solves never pay for it.
func buildEntry(g *arbods.Graph, id, name string, bound int) *graphEntry {
	degen := arbor.DegeneracyOf(g)
	return &graphEntry{id: id, name: name, g: g, bound: bound, degen: degen}
}

// loadCorpus reads and builds a graph from the corpus directory.
func loadCorpus(dir, name string) (*arbods.Graph, error) {
	if dir == "" {
		return nil, fmt.Errorf("no corpus directory configured")
	}
	if !corpusName.MatchString(name) || strings.Contains(name, "..") {
		return nil, fmt.Errorf("invalid corpus name %q", name)
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return arbods.DecodeGraph(f)
}

// buildSpec generates a graph from an internal/gen spec string.
func buildSpec(spec string) (*arbods.Graph, int, error) {
	w, err := gen.Parse(spec)
	if err != nil {
		return nil, 0, err
	}
	return w.G, w.ArboricityBound, nil
}
