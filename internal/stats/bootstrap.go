package stats

import (
	"fmt"
	"math/rand"
	"sort"
)

// CI is a two-sided confidence interval for a statistic.
type CI struct {
	// Point is the statistic on the original sample.
	Point float64
	// Lo and Hi bound the interval.
	Lo, Hi float64
	// Level is the nominal coverage (e.g. 0.95).
	Level float64
}

// String renders the interval compactly.
func (c CI) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]@%g", c.Point, c.Lo, c.Hi, c.Level)
}

// Contains reports whether x lies inside the interval.
func (c CI) Contains(x float64) bool { return x >= c.Lo && x <= c.Hi }

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// MeanDiffCI bootstraps a confidence interval on mean(a) − mean(b) for two
// independent samples — the right tool for "is scheduler X really cheaper
// than Y" questions on pooled per-iteration costs.
func MeanDiffCI(a, b []float64, resamples int, level float64, seed int64) CI {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: MeanDiffCI with empty sample")
	}
	if resamples < 1 {
		panic(fmt.Sprintf("stats: resamples %d < 1", resamples))
	}
	if level <= 0 || level >= 1 {
		panic(fmt.Sprintf("stats: confidence level %v outside (0,1)", level))
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]float64, resamples)
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	for r := 0; r < resamples; r++ {
		for i := range ra {
			ra[i] = a[rng.Intn(len(a))]
		}
		for i := range rb {
			rb[i] = b[rng.Intn(len(b))]
		}
		points[r] = Mean(ra) - Mean(rb)
	}
	sort.Float64s(points)
	alpha := (1 - level) / 2
	lo := points[clampIndex(int(alpha*float64(resamples)), resamples)]
	hi := points[clampIndex(int((1-alpha)*float64(resamples)), resamples)]
	return CI{Point: Mean(a) - Mean(b), Lo: lo, Hi: hi, Level: level}
}
