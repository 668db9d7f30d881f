package cluster_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arbods/internal/cluster"
)

func newSet(t *testing.T, self string, peers []string, mutate func(*cluster.Config)) *cluster.Set {
	t.Helper()
	cfg := cluster.Config{Self: self, Peers: peers}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Fatal("New without Self should fail")
	}
	// Bare host:port addresses normalize to http URLs, self is added to
	// the peer set, and duplicates collapse.
	s := newSet(t, "10.0.0.1:8080", []string{"10.0.0.2:8080", "http://10.0.0.1:8080/"}, nil)
	want := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"}
	if got := s.Peers(); !slices.Equal(got, want) {
		t.Fatalf("Peers() = %v, want %v", got, want)
	}
	if s.Self() != "http://10.0.0.1:8080" {
		t.Fatalf("Self() = %q", s.Self())
	}
	// R clamps to the peer count.
	if got := s.Replicas(); got != 2 {
		t.Fatalf("Replicas() = %d, want 2", got)
	}
	solo := newSet(t, "a:1", nil, func(c *cluster.Config) { c.Replicas = 5 })
	if got := solo.Replicas(); got != 1 {
		t.Fatalf("solo Replicas() = %d, want 1", got)
	}
}

func TestOwnersDeterministicAndBalanced(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	// Every daemon must compute identical owners regardless of which
	// peer it is or how its -peers flag was ordered.
	sets := []*cluster.Set{
		newSet(t, peers[0], peers, nil),
		newSet(t, peers[1], []string{peers[2], peers[0], peers[1]}, nil),
		newSet(t, peers[2], []string{peers[1], peers[0]}, nil),
	}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("sha256:%064d", i)
		owners := sets[0].Owners(key)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("Owners(%s) = %v, want 2 distinct", key, owners)
		}
		for _, s := range sets[1:] {
			if got := s.Owners(key); !slices.Equal(got, owners) {
				t.Fatalf("Owners(%s) disagree: %v vs %v", key, got, owners)
			}
		}
		for _, o := range owners {
			counts[o]++
		}
		// Owns agrees with Owners on every daemon.
		for _, s := range sets {
			if got, want := s.Owns(key), slices.Contains(owners, s.Self()); got != want {
				t.Fatalf("%s.Owns(%s) = %v, want %v", s.Self(), key, got, want)
			}
		}
	}
	// Rendezvous hashing should spread 600 (key, replica) slots roughly
	// evenly over 3 peers; a peer owning fewer than half its fair share
	// means the hash is broken, not unlucky.
	for p, n := range counts {
		if n < 100 {
			t.Fatalf("peer %s owns %d/600 slots — hash badly skewed: %v", p, n, counts)
		}
	}
}

func TestNilSetAccessors(t *testing.T) {
	var s *cluster.Set
	if !s.Owns("anything") {
		t.Fatal("nil Set must own every key (standalone semantics)")
	}
	if s.Owners("k") != nil || s.Peers() != nil || s.Status() != nil {
		t.Fatal("nil Set accessors must return nil")
	}
	if s.Healthy("x") {
		t.Fatal("nil Set has no healthy peers")
	}
	s.MarkForward("x", true) // must not panic
	s.Close()                // must not panic
}

func TestHealthHysteresis(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1"}
	s := newSet(t, peers[0], peers, func(c *cluster.Config) {
	})
	other := peers[1]
	if !s.Healthy(other) {
		t.Fatal("peers start healthy")
	}
	// Two failures are a flap, not a death.
	s.MarkForward(other, false)
	s.MarkForward(other, false)
	if !s.Healthy(other) {
		t.Fatal("peer flipped unhealthy before FailAfter")
	}
	s.MarkForward(other, false)
	if s.Healthy(other) {
		t.Fatal("peer still healthy after FailAfter consecutive failures")
	}
	// One success is a lucky probe, not a revival.
	s.MarkForward(other, true)
	if s.Healthy(other) {
		t.Fatal("peer revived before ReviveAfter")
	}
	s.MarkForward(other, true)
	if !s.Healthy(other) {
		t.Fatal("peer still unhealthy after ReviveAfter consecutive successes")
	}
	// Self is always healthy and never tracked.
	s.MarkForward(s.Self(), false)
	if !s.Healthy(s.Self()) {
		t.Fatal("self must stay healthy")
	}
	var st cluster.PeerStatus
	for _, ps := range s.Status() {
		if ps.Peer == other {
			st = ps
		}
	}
	if st.Forwards != 5 || st.ForwardFailures != 3 {
		t.Fatalf("peer status = %+v, want 5 forwards / 3 failures", st)
	}
}

func TestProbeLifecycle(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		if ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer peer.Close()

	s := newSet(t, "http://self:1", []string{peer.URL}, func(c *cluster.Config) {
		c.ProbeInterval = 5 * time.Millisecond
		c.ProbeTimeout = 500 * time.Millisecond
	})
	s.Start()
	s.Start() // idempotent

	waitHealth := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if s.Healthy(peer.URL) == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("peer health never became %v", want)
	}
	// A draining peer (503) goes unhealthy; a recovered one comes back.
	ready.Store(false)
	waitHealth(false)
	ready.Store(true)
	waitHealth(true)

	var st cluster.PeerStatus
	for _, ps := range s.Status() {
		if ps.Peer == peer.URL {
			st = ps
		}
	}
	if st.Probes == 0 || st.ProbeFailures == 0 {
		t.Fatalf("probe counters not moving: %+v", st)
	}
	s.Close()
	s.Close() // idempotent
}
