package hier

import "fmt"

// Topology partitions a fleet into regions, each served by one edge
// aggregator. Regions are contiguous index ranges — device order is the
// layout order of the fleet's SoA columns, so a region's round walks a
// dense slice of every parameter array (cache-friendly at N=1M).
type Topology struct {
	// offsets has one entry per region boundary: region r owns devices
	// [offsets[r], offsets[r+1]).
	offsets []int32
}

// EvenTopology splits n devices into `regions` contiguous regions whose
// sizes differ by at most one (the first n%regions regions get the extra
// device).
func EvenTopology(n, regions int) (Topology, error) {
	if n <= 0 {
		return Topology{}, fmt.Errorf("hier: %d devices", n)
	}
	if regions <= 0 || regions > n {
		return Topology{}, fmt.Errorf("hier: %d regions for %d devices", regions, n)
	}
	offsets := make([]int32, regions+1)
	base, extra := n/regions, n%regions
	pos := 0
	for r := 0; r < regions; r++ {
		offsets[r] = int32(pos)
		pos += base
		if r < extra {
			pos++
		}
	}
	offsets[regions] = int32(n)
	return Topology{offsets: offsets}, nil
}

// Regions returns the number of regions.
func (t Topology) Regions() int { return len(t.offsets) - 1 }

// Region returns the device index range [lo, hi) of region r.
func (t Topology) Region(r int) (lo, hi int) {
	return int(t.offsets[r]), int(t.offsets[r+1])
}

// N returns the total device count the topology covers.
func (t Topology) N() int { return int(t.offsets[len(t.offsets)-1]) }

// validate checks the topology against a fleet size.
func (t Topology) validate(n int) error {
	if len(t.offsets) < 2 {
		return fmt.Errorf("hier: topology not initialized (use EvenTopology)")
	}
	if t.N() != n {
		return fmt.Errorf("hier: topology covers %d devices, fleet has %d", t.N(), n)
	}
	return nil
}
