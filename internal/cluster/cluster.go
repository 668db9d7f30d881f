// Package cluster implements the replication layer that turns a set of
// independent arbods-server daemons into one fault-tolerant serving
// system. The design leans entirely on the library's determinism: a
// solve's receipt is byte-identical for a fixed (graph, algorithm,
// params, seed) no matter which daemon executes it, so any replica's
// answer is independently checkable and failover can be verified
// instead of trusted.
//
//   - Membership is static: every daemon is started with the same
//     -peers list (its own advertised address included), so there is no
//     consensus protocol to get wrong — the peer set is configuration.
//   - Ownership is rendezvous (highest-random-weight) hashing: each
//     graph reference maps to the R peers with the highest
//     hash(key, peer) scores. Every daemon computes the same owners
//     from the same inputs, with no token ring to rebalance; removing
//     a peer from the set moves only that peer's share of the keyspace.
//   - Health is probed, not assumed: a background loop hits every
//     peer's /readyz on an interval, and proxy outcomes feed the same
//     internal/health Tracker, with hysteresis in both directions (3
//     consecutive failures to go unhealthy, 2 consecutive successes to
//     come back) so one dropped probe doesn't flap the routing and one
//     lucky probe doesn't resurrect a dying daemon.
//   - The Set only tracks and scores; the serving integration — who
//     proxies, who falls back, who replicates — lives in
//     internal/server, which asks Owners/Healthy and reports outcomes
//     back via MarkForward.
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arbods/internal/health"
)

// Config configures a peer Set.
type Config struct {
	// Self is this daemon's advertised base URL (e.g. "http://10.0.0.1:8080").
	// It is added to Peers if absent, so every daemon hashes over the
	// identical set.
	Self string
	// Peers lists every daemon's advertised base URL. Order does not
	// matter: the set is sorted before hashing.
	Peers []string
	// Replicas is R, the number of owner daemons per graph reference
	// (default 2, clamped to the peer count).
	Replicas int
	// ProbeInterval is the /readyz polling period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe or proxied request (default 5s).
	ProbeTimeout time.Duration
	// Transport carries every peer request — probes, proxies, snapshot
	// fetches (nil = http.DefaultTransport). Chaos tests inject
	// faultinject.Transport here to partition specific links.
	Transport http.RoundTripper
	// Logf receives health-transition records (nil = silent).
	Logf func(format string, args ...any)
}

// A peer goes unhealthy after failAfter consecutive failed probes or
// forwards and comes back after reviveAfter consecutive successes.
const (
	failAfter   = 3
	reviveAfter = 2
)

// peerState is the live health and traffic record of one peer.
type peerState struct {
	base   string
	health *health.Tracker

	probes       atomic.Int64
	probeFails   atomic.Int64
	forwards     atomic.Int64
	forwardFails atomic.Int64
}

// Set is the static peer set plus its live health view. All methods are
// safe for concurrent use; a nil *Set means "no cluster" and is valid
// for the read-only accessors.
type Set struct {
	cfg   Config
	self  string
	peers []*peerState // sorted by base URL; includes self
	byURL map[string]*peerState
	hc    *http.Client

	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	once    sync.Once
}

// normalizeURL canonicalizes a peer address: a bare host:port gains the
// http scheme, trailing slashes go.
func normalizeURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s != "" && !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// New builds a Set from cfg; Start launches the prober separately so
// tests can drive health by hand.
func New(cfg Config) (*Set, error) {
	cfg.Self = normalizeURL(cfg.Self)
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self address required")
	}
	urls := []string{cfg.Self}
	for _, p := range cfg.Peers {
		if u := normalizeURL(p); u != "" && !slices.Contains(urls, u) {
			urls = append(urls, u)
		}
	}
	sort.Strings(urls)
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(urls) {
		cfg.Replicas = len(urls)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 5 * time.Second
	}
	s := &Set{
		cfg:   cfg,
		self:  cfg.Self,
		byURL: make(map[string]*peerState, len(urls)),
		hc:    &http.Client{Transport: cfg.Transport},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, u := range urls {
		ps := &peerState{base: u, health: health.New(failAfter, reviveAfter, 0)}
		s.peers = append(s.peers, ps)
		s.byURL[u] = ps
	}
	return s, nil
}

// Self returns this daemon's advertised base URL.
func (s *Set) Self() string {
	if s == nil {
		return ""
	}
	return s.self
}

// Replicas returns R.
func (s *Set) Replicas() int { return s.cfg.Replicas }

// Client returns the HTTP client every peer request should ride (shared
// transport, no global timeout — callers bound requests by context).
func (s *Set) Client() *http.Client { return s.hc }

// ProbeTimeout is the per-request bound for peer traffic.
func (s *Set) ProbeTimeout() time.Duration { return s.cfg.ProbeTimeout }

// Peers returns every peer base URL, sorted, self included.
func (s *Set) Peers() []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.peers))
	for i, p := range s.peers {
		out[i] = p.base
	}
	return out
}

// score is the rendezvous weight of (key, peer): FNV-1a over both, so
// every daemon computes identical owners with zero coordination.
func score(key, peer string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(peer))
	return h.Sum64()
}

// Owners returns the R peers that own key, highest rendezvous score
// first. Ownership is computed over the full static set — health never
// moves ownership (that would tear the replicas' caches apart during a
// flap); callers skip unhealthy owners at use time.
func (s *Set) Owners(key string) []string {
	if s == nil {
		return nil
	}
	type scored struct {
		peer string
		w    uint64
	}
	sc := make([]scored, len(s.peers))
	for i, p := range s.peers {
		sc[i] = scored{peer: p.base, w: score(key, p.base)}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].w != sc[j].w {
			return sc[i].w > sc[j].w
		}
		return sc[i].peer < sc[j].peer
	})
	out := make([]string, 0, s.cfg.Replicas)
	for i := 0; i < s.cfg.Replicas; i++ {
		out = append(out, sc[i].peer)
	}
	return out
}

// Owns reports whether this daemon is one of key's owners.
func (s *Set) Owns(key string) bool {
	if s == nil {
		return true // no cluster: every graph is local
	}
	return slices.Contains(s.Owners(key), s.self)
}

// Healthy reports the current health verdict for peer; self is always
// healthy (a daemon that can ask is alive).
func (s *Set) Healthy(peer string) bool {
	if s == nil {
		return false
	}
	if peer == s.self {
		return true
	}
	ps, ok := s.byURL[peer]
	return ok && ps.health.Up()
}

// observe feeds one health observation (a probe result or a proxy
// outcome) to peer's Tracker and logs a flip of its verdict.
func (s *Set) observe(ps *peerState, ok bool) {
	if ps.health.Record(ok) && s.cfg.Logf != nil {
		s.cfg.Logf("event=peer_health peer=%s healthy=%v", ps.base, ok)
	}
}

// MarkForward records a proxied-solve outcome against peer: the traffic
// counters move, and the result feeds the same Tracker as a probe —
// a peer that eats three forwards in a row is as unhealthy as one that
// drops three probes, and the prober notices the revival later.
func (s *Set) MarkForward(peer string, ok bool) {
	if s == nil {
		return
	}
	ps, found := s.byURL[peer]
	if !found || peer == s.self {
		return
	}
	ps.forwards.Add(1)
	if !ok {
		ps.forwardFails.Add(1)
	}
	s.observe(ps, ok)
}

// probe hits one peer's /readyz under the probe timeout; any transport
// error or non-200 counts as a failure (a draining daemon answers 503
// exactly so this loop steers traffic away).
func (s *Set) probe(ps *peerState) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ProbeTimeout)
	defer cancel()
	ps.probes.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.base+"/readyz", nil)
	if err != nil {
		ps.probeFails.Add(1)
		s.observe(ps, false)
		return
	}
	resp, err := s.hc.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		resp.Body.Close()
	}
	if !ok {
		ps.probeFails.Add(1)
	}
	s.observe(ps, ok)
}

// Start launches the background health prober. Safe to skip in tests
// that drive health through MarkForward alone.
func (s *Set) Start() {
	if s == nil || s.started.Swap(true) {
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				for _, ps := range s.peers {
					if ps.base == s.self {
						continue
					}
					s.probe(ps)
				}
			}
		}
	}()
}

// Close stops the prober and waits for it. Idempotent.
func (s *Set) Close() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// PeerStatus is the /v1/stats view of one peer.
type PeerStatus struct {
	Peer    string `json:"peer"`
	Self    bool   `json:"self,omitempty"`
	Healthy bool   `json:"healthy"`
	// Probes/ProbeFailures count background /readyz checks;
	// Forwards/ForwardFailures count solves proxied to this peer.
	Probes          int64 `json:"probes,omitempty"`
	ProbeFailures   int64 `json:"probeFailures,omitempty"`
	Forwards        int64 `json:"forwards,omitempty"`
	ForwardFailures int64 `json:"forwardFailures,omitempty"`
}

// Status snapshots every peer for /v1/stats, sorted by URL.
func (s *Set) Status() []PeerStatus {
	if s == nil {
		return nil
	}
	out := make([]PeerStatus, 0, len(s.peers))
	for _, ps := range s.peers {
		out = append(out, PeerStatus{
			Peer:            ps.base,
			Self:            ps.base == s.self,
			Healthy:         ps.base == s.self || ps.health.Up(),
			Probes:          ps.probes.Load(),
			ProbeFailures:   ps.probeFails.Load(),
			Forwards:        ps.forwards.Load(),
			ForwardFailures: ps.forwardFails.Load(),
		})
	}
	return out
}
