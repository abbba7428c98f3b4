// Command perfbench is the repository's benchmark: one seeded workload per
// pipeline (train, simulate, serve), timed end to end, with its outputs
// checked, and a traced mode that splits each pipeline's time over the
// modules it calls.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record file]
//
// Workloads: train-testbed, sim-hier, serve-testbed, serve-fleet. The last
// line of standard output is one JSON object: correct, attempted, failed
// and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). --record appends that object, tagged with the
// workload, seed and mode, to a file the comparator (perfbench/compare)
// reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload returns: its metrics, its operation counts
// and the output checks it failed (none means correct).
type outcome struct {
	metrics           map[string]metric
	attempted, failed int64
	problems          []string
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"train-testbed": runTrain,
	"sim-hier":      runSim,
	"serve-testbed": func(o runOpts) (*outcome, error) { return runServe(o, serveTestbed) },
	"serve-fleet":   func(o runOpts) (*outcome, error) { return runServe(o, serveFleet) },
}

// endToEnd and perLayer list every metric a run of each mode prints, with
// its unit. A per-layer metric of a module the workload never calls reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cost", "eq9"},
}

var perLayer = []struct{ name, unit string }{
	{"rl.update_ms", "ms"},
	{"rl.update_share", "share"},
	{"rl.sample_us", "us"},
	{"rl.value_us", "us"},
	{"rl.batch_us", "us"},
	{"rl.epochs_run_share", "share"},
	{"rl.skipped_minibatches", "count"},
	{"rl.mean_us", "us"},
	{"env.step_us", "us"},
	{"env.state_us", "us"},
	{"hier.step_ms", "ms"},
	{"hier.plan_us", "us"},
	{"hier.participants", "count"},
	{"hier.late_regions", "count"},
	{"hier.stale_share", "share"},
	{"hier.useful_weight", "share"},
	{"http.rtt_us", "us"},
	{"server.handler_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.decide_p50_us", "us"},
	{"server.decide_p99_us", "us"},
	{"server.queue_max", "count"},
	{"server.degraded_share", "share"},
	{"server.shed_share", "share"},
	{"guard.decide_us", "us"},
	{"sched.drl_us", "us"},
	{"guard.trips", "count"},
	{"load.late_p50_us", "us"},
	{"load.late_p99_us", "us"},
	{"load.p99_ms", "ms"},
	{"load.max_rps", "1/s"},
	{"train.unattributed_share", "share"},
	{"sim.unattributed_share", "share"},
	{"serve.unattributed_share", "share"},
	{"tracing.overhead_share", "share"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: train-testbed, sim-hier, serve-testbed or serve-fleet")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		record  = flag.String("record", "", "append the result, tagged with workload, seed and mode, to this file")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out.set("peak_rss_mb", rss, "MB")
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		if v.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s measured in %s, declared in %s\n", m.name, v.Unit, m.unit)
			os.Exit(1)
		}
		res.Metrics[m.name] = v
		fmt.Printf("%-26s %14.6g %s\n", m.name, v.Value, m.unit)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := appendRecord(*record, *name, *seed, *trace, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// appendRecord appends one tagged result line for the comparator.
func appendRecord(path, workload string, seed int64, trace int, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := fmt.Sprintf(`{"workload":%q,"seed":%d,"trace":%d,"result":%s}`+"\n", workload, seed, trace, line)
	if _, err := f.WriteString(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set in MB (getrusage's
// ru_maxrss, in kB on Linux).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
