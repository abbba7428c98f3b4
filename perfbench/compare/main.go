// Command compare sets the benchmark results of two commits side by side.
// Each input is a file of result records as perfbench --record appends
// them, one JSON object per line. Runs of the same workload and seed on the
// two sides form a pair. For every workload × end-to-end metric it prints
// each side's median and quartiles, the change's relative shift (positive
// is worse), the wider spread, the pairs the change won and a verdict by
// the rules of perfbench/stat.Compare against the metric's bound in
// BENCHMARK.json. It exits 1 when any metric regressed or any run failed
// its output checks.
//
// Usage, from the perfbench directory:
//
//	go run ./compare -bench ../BENCHMARK.json parent.jsonl change.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/perfbench/stat"
)

type benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// side maps workload → seed → the end-to-end run of that seed.
type side map[string]map[int64]record

func load(path string) (side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[int64]record{}
		}
		s[r.Workload][r.Seed] = r
	}
	return s, sc.Err()
}

// rowReporter prefixes the comparator's findings with the row they concern.
type rowReporter struct {
	row  string
	msgs []string
}

func (r *rowReporter) Errorf(format string, args ...interface{}) {
	r.msgs = append(r.msgs, r.row+": "+fmt.Sprintf(format, args...))
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition holding each metric's bound")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchPath, err))
	}
	parent, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	change, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	var workloads []string
	for w := range parent {
		if change[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	bad := false
	rep := &rowReporter{}
	fmt.Printf("%-14s %-12s %-28s %-28s %8s %7s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "spread", "wins", "verdict")
	for _, w := range workloads {
		var seeds []int64
		for s := range parent[w] {
			if _, ok := change[w][s]; ok {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			for name, r := range map[string]record{"parent": parent[w][s], "change": change[w][s]} {
				if !r.Result.Correct || r.Result.Failed > 0 {
					bad = true
					fmt.Printf("%s seed %d on the %s side failed its checks (%d of %d operations failed)\n",
						w, s, name, r.Result.Failed, r.Result.Attempted)
				}
			}
		}
		for _, m := range b.EndToEnd {
			var pv, cv []float64
			for _, s := range seeds {
				p, okp := parent[w][s].Result.Metrics[m.Name]
				c, okc := change[w][s].Result.Metrics[m.Name]
				if okp && okc {
					pv = append(pv, p.Value)
					cv = append(cv, c.Value)
				}
			}
			if len(pv) == 0 {
				continue
			}
			rep.row = w + " " + m.Name
			c := stat.Compare(rep, pv, cv, m.Better == "lower", m.Bound)
			if c.Verdict == stat.Regression {
				bad = true
			}
			fmt.Printf("%-14s %-12s %-28s %-28s %7.1f%% %6.1f%% %3d/%-2d  %s\n", w, m.Name,
				stat.QuartileString(c.ParentQ), stat.QuartileString(c.ChangeQ),
				100*c.Worse, 100*c.Spread, c.Wins, c.Pairs, c.Verdict)
		}
	}
	for _, msg := range rep.msgs {
		fmt.Println(msg)
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}
