package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"arbods/internal/api"
	"arbods/internal/graph"
)

// Cluster integration: with Config.Cluster set, this daemon is one
// replica in a static peer set. Each graph reference rendezvous-hashes
// to R owner daemons; a solve that arrives at a non-owner is proxied to
// a healthy owner (so the owners' caches stay hot and replicas answer
// from warm state), and when every owner is down the receiving daemon
// falls back to solving locally — rebuilding the graph from the request
// itself (spec:/corpus: references) or from a peer's ARBCSR01 snapshot
// (sha256: references). Determinism makes the failover safe: whichever
// daemon executes, the receipt is byte-identical.

// forwardedHeader marks intra-cluster traffic: a forwarded solve is
// executed locally no matter who owns it (one hop, never a loop), and a
// replicated upload is not re-replicated.
const forwardedHeader = "X-Arbods-Forwarded"

// proxySolve forwards the solve to the first healthy owner and relays
// its answer, returning false when no owner could be reached (the
// caller then serves locally). Outcomes feed the cluster's passive
// health view, so a dead owner stops receiving forwards once enough
// consecutive forwards fail, even between probe ticks.
func (s *Server) proxySolve(w http.ResponseWriter, r *http.Request, raw []byte, req *SolveRequest, owners []string) bool {
	for _, owner := range owners {
		if owner == s.cluster.Self() || !s.cluster.Healthy(owner) {
			continue
		}
		t0 := time.Now()
		// The owner enforces its own solve deadline; this request is
		// bounded only by the client's context, so long solves proxy as
		// well as short ones.
		preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/solve", bytes.NewReader(raw))
		if err != nil {
			continue
		}
		preq.Header.Set("Content-Type", "application/json")
		preq.Header.Set(forwardedHeader, s.cluster.Self())
		resp, err := s.cluster.Client().Do(preq)
		if err != nil {
			s.cluster.MarkForward(owner, false)
			if r.Context().Err() != nil {
				// The client is gone; stop burning owners on its behalf.
				s.canceled.Add(1)
				return true
			}
			s.logf("event=proxy_failover graph=%s owner=%s err=%q", req.Graph, owner, err.Error())
			continue
		}
		s.cluster.MarkForward(owner, true)
		s.proxied.Add(1)
		s.relayProxied(w, resp, req.Stream)
		s.lat.proxy.observe(time.Since(t0))
		s.logf("proxy %s -> %s status=%d", req.Graph, owner, resp.StatusCode)
		return true
	}
	return false
}

// relayProxied copies the owner's answer to the client. Successful
// plain responses are re-tagged proxied=true through the shared envelope,
// whose raw receipt keeps every receipt byte untouched;
// streams and error statuses — including the owner's 429/503 with its
// Retry-After hint — pass through verbatim. A plain answer is read under
// api.MaxAnswerBytes.
func (s *Server) relayProxied(w http.ResponseWriter, resp *http.Response, stream bool) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if stream {
		w.WriteHeader(resp.StatusCode)
		flushingCopy(w, resp.Body)
		return
	}
	body, err := api.ReadBody(resp.Body, resp.ContentLength, api.MaxAnswerBytes)
	if err != nil {
		s.errorCode(w, http.StatusBadGateway, "proxy_failed", "read proxied response: %v", err)
		return
	}
	if resp.StatusCode == http.StatusOK {
		var pr api.SolveResponse
		if json.Unmarshal(body, &pr) == nil && len(pr.ReceiptBytes) > 0 {
			pr.Proxied = true
			s.writeJSON(w, http.StatusOK, &pr)
			return
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// flushingCopy streams src to w line-granularly so proxied NDJSON round
// progress arrives as it happens, not when the run ends.
func flushingCopy(w http.ResponseWriter, src io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// replicate pushes a freshly uploaded graph's ARBCSR01 snapshot to its
// owner daemons, so solves proxied there answer from a warm cache and
// the upload survives this daemon's death. Best-effort by design:
// failures are counted and logged, never surfaced to the uploader —
// the owners can always recover the graph later through the peer
// snapshot-fetch path.
func (s *Server) replicate(e graphEntry) {
	var blob []byte
	for _, owner := range s.cluster.Owners(e.id) {
		if owner == s.cluster.Self() {
			continue
		}
		if blob == nil {
			blob = graph.AppendBinary(nil, e.g)
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cluster.ProbeTimeout())
		err := s.pushSnapshot(ctx, owner, blob)
		cancel()
		if err != nil {
			s.replFails.Add(1)
			s.logf("event=replicate_error id=%s owner=%s err=%q", e.id, owner, err.Error())
			continue
		}
		s.replPushes.Add(1)
	}
}

// pushSnapshot uploads one binary-encoded graph to a peer, reading at
// most 1 MiB of its answer.
func (s *Server) pushSnapshot(ctx context.Context, peer string, blob []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/graphs", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", api.BinaryContentType)
	req.Header.Set(forwardedHeader, s.cluster.Self())
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		return err
	}
	_, err = api.ReadAnswer(resp, 1<<20)
	return err
}

// fetchPeerSnapshot recovers a sha256: graph this daemon has never seen
// from any healthy peer's cache, over the same ARBCSR01 wire the
// snapshot files use. This is the failover rebuild path: an owner that
// restarted without -data-dir, or a non-owner serving while every owner
// is down, repopulates itself from whichever replica still holds the
// graph. api.FetchGraph cross-checks the decoded graph's content hash
// before it is trusted, exactly like a disk snapshot's.
func (s *Server) fetchPeerSnapshot(ctx context.Context, id string) (graphEntry, bool) {
	if s.cluster == nil {
		return graphEntry{}, false
	}
	// Owners first — they are where the graph should be — then the rest.
	tried := make(map[string]bool)
	order := append(s.cluster.Owners(id), s.cluster.Peers()...)
	for _, peer := range order {
		if peer == s.cluster.Self() || tried[peer] || !s.cluster.Healthy(peer) {
			continue
		}
		tried[peer] = true
		fctx, cancel := context.WithTimeout(ctx, s.cluster.ProbeTimeout())
		g, err := api.FetchGraph(fctx, s.cluster.Client(), peer, id, s.cfg.MaxUploadBytes)
		cancel()
		if err != nil {
			continue
		}
		s.snapFetches.Add(1)
		s.logf("event=snapshot_fetch id=%s peer=%s", id, peer)
		resident, _ := s.cache.insert(buildEntry(g, id, "", 0), false)
		if s.persist != nil {
			s.persist.save(resident)
		}
		return resident, true
	}
	return graphEntry{}, false
}
