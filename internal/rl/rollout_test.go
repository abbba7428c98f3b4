package rl

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCollectEpisodesOrdering pins the determinism contract: the returned
// slice is indexed by episode regardless of width or scheduling.
func TestCollectEpisodesOrdering(t *testing.T) {
	for _, width := range []int{0, 1, 3, 8, 100} {
		trs, err := CollectEpisodes(5, 12, width, func(episode int) (*Trajectory, error) {
			return &Trajectory{Episode: episode}, nil
		})
		if err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
		if len(trs) != 12 {
			t.Fatalf("width=%d: got %d trajectories", width, len(trs))
		}
		for i, tr := range trs {
			if tr.Episode != 5+i {
				t.Fatalf("width=%d: slot %d holds episode %d", width, i, tr.Episode)
			}
		}
	}
}

func TestCollectEpisodesError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		var mu sync.Mutex
		ran := 0
		trs, err := CollectEpisodes(0, 50, width, func(episode int) (*Trajectory, error) {
			mu.Lock()
			ran++
			mu.Unlock()
			if episode == 2 {
				return nil, boom
			}
			return &Trajectory{Episode: episode}, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("width=%d: got %v, want %v", width, err, boom)
		}
		if trs != nil {
			t.Fatalf("width=%d: trajectories returned alongside error", width)
		}
		// The serial path must stop at the failing episode; the pool stops
		// claiming once the error lands, which is scheduling-dependent, so
		// only the serial count is pinned exactly.
		if width == 1 && ran != 3 {
			t.Fatalf("serial run executed %d episodes, want 3", ran)
		}
	}
	// A slow failure at a low episode wins over a fast one at a higher
	// episode at every width, as in the serial loop.
	errSlow, errFast := errors.New("episode 1, after 20 ms"), errors.New("episode 5, at once")
	for _, width := range []int{1, 2, 4, 16} {
		_, err := CollectEpisodes(0, 8, width, func(episode int) (*Trajectory, error) {
			switch episode {
			case 1:
				time.Sleep(20 * time.Millisecond)
				return nil, errSlow
			case 5:
				return nil, errFast
			}
			return &Trajectory{Episode: episode}, nil
		})
		if err != errSlow {
			t.Fatalf("width=%d: got %v, want %v", width, err, errSlow)
		}
	}
}

func TestCollectEpisodesEmpty(t *testing.T) {
	for _, width := range []int{1, 4} {
		trs, err := CollectEpisodes(0, 0, width, func(episode int) (*Trajectory, error) {
			t.Fatal("collect called for empty range")
			return nil, nil
		})
		if err != nil || trs != nil {
			t.Fatalf("width=%d: got %v, %v", width, trs, err)
		}
	}
}
