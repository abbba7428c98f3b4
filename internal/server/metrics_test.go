package server

import (
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	// 90 fast observations, 10 slow: p50 near 10µs, p99 near 10ms. The
	// estimate is the containing bucket's upper edge, so it errs high by
	// at most one growth factor.
	for k := 0; k < 90; k++ {
		h.Observe(10 * time.Microsecond)
	}
	for k := 0; k < 10; k++ {
		h.Observe(10 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count %d, want 100", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 10*time.Microsecond || p50 > time.Duration(float64(10*time.Microsecond)*histGrowth) {
		t.Fatalf("p50 %v outside [10µs, 12.5µs]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 10*time.Millisecond || p99 > time.Duration(float64(10*time.Millisecond)*histGrowth) {
		t.Fatalf("p99 %v outside [10ms, 12.5ms]", p99)
	}
	if h.Quantile(0) == 0 || h.Quantile(1) < p99 {
		t.Fatal("quantile bounds misbehave at p=0/p=1")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	if bucketFor(0) != 0 || bucketFor(-time.Second) != 0 {
		t.Fatal("non-positive durations must land in bucket 0")
	}
	if bucketFor(time.Hour) != histBuckets-1 {
		t.Fatal("huge durations must land in the overflow bucket")
	}
	// Every observation lands in a bucket whose upper edge bounds it
	// (except overflow, which is unbounded by design).
	for _, d := range []time.Duration{
		time.Microsecond, 3 * time.Microsecond, 50 * time.Microsecond,
		time.Millisecond, 17 * time.Millisecond, time.Second,
	} {
		idx := bucketFor(d)
		if idx < histBuckets-1 && upperBound(idx) < d {
			t.Fatalf("%v landed in bucket %d with upper edge %v", d, idx, upperBound(idx))
		}
	}
}

func TestCountersSnapshotComplete(t *testing.T) {
	var c Counters
	c.Requests.Add(7)
	c.ShedDeadline.Add(2)
	snap := c.Snapshot()
	if snap["requests"] != 7 || snap["shed_deadline"] != 2 {
		t.Fatalf("snapshot %v", snap)
	}
	want := []string{
		"requests", "malformed", "not_found", "shed_rate", "shed_queue",
		"shed_deadline", "shed_drain", "timeouts", "served", "errors",
		"decisions", "degraded", "degrade_transitions",
	}
	for _, k := range want {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing %q", k)
		}
	}
}
