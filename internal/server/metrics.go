package server

import (
	"sync/atomic"
	"time"
)

// histBuckets is the number of log-spaced latency buckets: bucket i counts
// observations ≤ 2^i microseconds, so 24 buckets span 1µs to ~8.4s —
// everything from a solve-cache hit to a million-node cold solve. Slower
// observations land only in the totals (count/sum), which is the implicit
// +Inf bucket of a cumulative histogram.
const histBuckets = 24

// histogram is a fixed-bucket, log-spaced latency histogram with atomic
// counters: observe is wait-free and allocation-free, so the solve hot
// path can record build/queue/solve/total times without a lock. Buckets
// are cumulative Prometheus-style ("count of observations ≤ bound").
type histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	buckets [histBuckets]atomic.Int64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sum.Add(us)
	// Cumulative buckets: increment every bucket whose bound covers us.
	// bits.Len-style search would touch one slot, but then snapshots would
	// have to sum; with ≤24 adds per observation the simple loop keeps the
	// read side a plain copy.
	for i := 0; i < histBuckets; i++ {
		if us <= 1<<uint(i) {
			h.buckets[i].Add(1)
		}
	}
}

// mean reports the average observed duration, zero when empty. The
// adaptive Retry-After hint uses it to turn "queue depth × mean solve
// time ÷ workers" into seconds.
func (h *histogram) mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/n) * time.Microsecond
}

// Bucket is one cumulative histogram bucket: Count observations took at
// most LeMicros microseconds.
type Bucket struct {
	LeMicros int64 `json:"leMicros"`
	Count    int64 `json:"count"`
}

// HistogramSnapshot is the JSON view of a histogram: total count, the sum
// in microseconds (count and sum give the mean; the implicit +Inf bucket
// is Count itself), and the cumulative buckets. Empty buckets beyond the
// largest observation are trimmed.
type HistogramSnapshot struct {
	Count     int64    `json:"count"`
	SumMicros int64    `json:"sumMicros"`
	Buckets   []Bucket `json:"buckets,omitempty"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), SumMicros: h.sum.Load()}
	if s.Count == 0 {
		return s
	}
	buckets := make([]Bucket, 0, histBuckets)
	for i := 0; i < histBuckets; i++ {
		buckets = append(buckets, Bucket{LeMicros: 1 << uint(i), Count: h.buckets[i].Load()})
	}
	// Trim the saturated tail: once a bucket holds every observation, the
	// rest repeat it.
	for len(buckets) > 1 && buckets[len(buckets)-2].Count == s.Count {
		buckets = buckets[:len(buckets)-1]
	}
	s.Buckets = buckets
	return s
}

// latencySet is the server's solve-path latency breakdown.
type latencySet struct {
	build histogram // graph resolve on a cache miss (decode/generate + CSR build + degeneracy)
	queue histogram // admission to Runner checkout
	solve histogram // engine run (api.Run)
	total histogram // handler entry to response ready, all outcomes that produced an answer
	shed  histogram // handler entry to a load-shedding 429 (queue overflow or per-graph cap)
	proxy histogram // solves forwarded to an owner daemon, request to relayed response
}

// Metrics is the /v1/metrics payload: one histogram per solve phase.
// build counts only graph-cache misses (hits skip the build entirely);
// queue and solve count executed runs; total counts every answered solve,
// response-cache hits included; shed counts the load-shedding 429s — its
// latencies say how fast overload is being turned away, which is the
// property that keeps an overloaded server responsive.
type Metrics struct {
	BuildMicros HistogramSnapshot `json:"buildMicros"`
	QueueMicros HistogramSnapshot `json:"queueMicros"`
	SolveMicros HistogramSnapshot `json:"solveMicros"`
	TotalMicros HistogramSnapshot `json:"totalMicros"`
	ShedMicros  HistogramSnapshot `json:"shedMicros"`
	// ProxyMicros counts solves this daemon forwarded to an owner peer —
	// end to end, including the owner's own queue and solve time.
	ProxyMicros HistogramSnapshot `json:"proxyMicros"`
}

func (l *latencySet) snapshot() Metrics {
	return Metrics{
		BuildMicros: l.build.snapshot(),
		QueueMicros: l.queue.snapshot(),
		SolveMicros: l.solve.snapshot(),
		TotalMicros: l.total.snapshot(),
		ShedMicros:  l.shed.snapshot(),
		ProxyMicros: l.proxy.snapshot(),
	}
}
