package server

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for limiter tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBucketBurstThenRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBucket(10, 3, clk.now) // 10/s, burst 3

	for k := 0; k < 3; k++ {
		if ok, _ := b.TakeN(1); !ok {
			t.Fatalf("take %d refused within burst", k)
		}
	}
	ok, retry := b.TakeN(1)
	if ok {
		t.Fatal("take admitted past the burst with no time passing")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms] at 10 tokens/s", retry)
	}

	// One token refills in 100ms at 10/s.
	clk.advance(100 * time.Millisecond)
	if ok, _ := b.TakeN(1); !ok {
		t.Fatal("take refused after a full token refilled")
	}
	if ok, _ := b.TakeN(1); ok {
		t.Fatal("second take admitted off a single refilled token")
	}

	// Refill caps at the burst even over a long idle gap.
	clk.advance(time.Hour)
	admitted := 0
	for k := 0; k < 10; k++ {
		if ok, _ := b.TakeN(1); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d after a long idle, want the burst of 3", admitted)
	}
}

func TestBucketNilAndUnlimited(t *testing.T) {
	var b *Bucket
	if ok, _ := b.TakeN(1); !ok {
		t.Fatal("nil bucket must admit")
	}
	if NewBucket(0, 5, nil) != nil {
		t.Fatal("rate 0 must build an unlimited (nil) bucket")
	}
	if NewBucket(-1, 5, nil) != nil {
		t.Fatal("negative rate must build an unlimited (nil) bucket")
	}
}

func TestBucketMinimumBurst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBucket(1, 0, clk.now) // burst raised to 1
	if ok, _ := b.TakeN(1); !ok {
		t.Fatal("fresh bucket with raised burst must admit one request")
	}
	if ok, _ := b.TakeN(1); ok {
		t.Fatal("burst-1 bucket admitted twice with no refill")
	}
}
