package server

import (
	"math"
	"sync/atomic"
	"time"
)

// Counters are the daemon's lifetime counters, one per overload-pipeline
// stage (DESIGN.md §13): every request lands in exactly one terminal
// counter, so Requests = Served + Malformed + NotFound + the four shed
// classes + Timeouts.
type Counters struct {
	// Requests counts decide requests that reached the handler.
	Requests atomic.Int64
	// Malformed counts requests rejected by the strict decoder (400).
	Malformed atomic.Int64
	// NotFound counts requests naming an unregistered tenant (404).
	NotFound atomic.Int64
	// ShedRate counts admission-control rejections (429, token bucket).
	ShedRate atomic.Int64
	// ShedQueue counts requests refused at the queue bound, with QueueCap
	// requests already waiting for the tenant's turn (503).
	ShedQueue atomic.Int64
	// ShedDeadline counts deadline-aware rejections: the estimated queue
	// wait already exceeded the client's budget, so the request was
	// refused up front with Retry-After instead of timing out in queue.
	ShedDeadline atomic.Int64
	// ShedDrain counts requests refused because the daemon was draining.
	ShedDrain atomic.Int64
	// Timeouts counts requests whose deadline passed before their answer
	// (504): while they waited for the tenant's turn, or during their
	// decision.
	Timeouts atomic.Int64
	// Served counts requests answered with their plans (200).
	Served atomic.Int64
	// Errors counts internal decision failures answered by the terminal
	// max-frequency plan (the response still succeeds; this counts how
	// often the emergency plan backed it).
	Errors atomic.Int64
	// Decisions counts the frequency plans the tenants' guards made: a
	// batch makes Count of them, and a request that timed out during its
	// decision made one that was not served. Not a terminal counter.
	Decisions atomic.Int64
	// Degraded counts the plans made that did not come from the tenant's
	// primary layer.
	Degraded atomic.Int64
	// DegradeTransitions counts moves of a tenant's guard to a lower level
	// (Guard.Level), checked after each observation and decision; each
	// follows at least one breaker trip.
	DegradeTransitions atomic.Int64
}

// Snapshot copies the counters into a plain map for JSON rendering.
func (c *Counters) Snapshot() map[string]int64 {
	return map[string]int64{
		"requests":            c.Requests.Load(),
		"malformed":           c.Malformed.Load(),
		"not_found":           c.NotFound.Load(),
		"shed_rate":           c.ShedRate.Load(),
		"shed_queue":          c.ShedQueue.Load(),
		"shed_deadline":       c.ShedDeadline.Load(),
		"shed_drain":          c.ShedDrain.Load(),
		"timeouts":            c.Timeouts.Load(),
		"served":              c.Served.Load(),
		"errors":              c.Errors.Load(),
		"decisions":           c.Decisions.Load(),
		"degraded":            c.Degraded.Load(),
		"degrade_transitions": c.DegradeTransitions.Load(),
	}
}

// histBuckets is the number of geometric latency buckets: 1µs growing by
// 1.25× per bucket spans 1µs … ~1.3s; slower observations land in the
// final overflow bucket.
const histBuckets = 64

// histBase and histGrowth parameterize the bucket boundaries.
const (
	histBase   = float64(time.Microsecond)
	histGrowth = 1.25
)

// Histogram is a lock-free log-bucketed service-time histogram for the
// /v1/stats latency quantiles. Observations and quantile reads may race
// freely; quantiles are computed from an atomic per-bucket snapshot.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := int(math.Log(float64(d)/histBase) / math.Log(histGrowth))
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// upperBound returns a bucket's upper latency edge.
func upperBound(idx int) time.Duration {
	return time.Duration(histBase * math.Pow(histGrowth, float64(idx+1)))
}

// Observe records one service time.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper-bound estimate of the p-quantile (p in [0,1]),
// or 0 with no observations. The estimate is the upper edge of the bucket
// containing the p-th observation, so it errs high by at most one growth
// factor — honest for alerting thresholds.
func (h *Histogram) Quantile(p float64) time.Duration {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		cum += counts[i]
		if cum >= rank {
			return upperBound(i)
		}
	}
	return upperBound(histBuckets - 1)
}
