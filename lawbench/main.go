// Command lawbench is lawgate's repository benchmark. One command runs
// one named workload for a fixed time, checks that every output is
// correct, and prints every metric by name and unit. See README.md for
// what each workload exercises and which layer metric should move which
// end-to-end metric.
//
//	lawbench -workload clean|chaos|batch|sim -seed N -seconds S -trace 0|1
//
// With -trace 0 the last line of standard output is the end-to-end
// result; with -trace 1 it is the per-layer result of a separate traced
// run. A correctness-gate violation prints the result with
// "correct": false and exits 1; a harness failure exits 2 without a
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main: the accounting,
// the metrics, the input properties and every gate violation found.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	inputs            map[string]any
	violations        []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, inputs: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	nproc    int
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: clean, chaos, batch or sim")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		out      = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "lawbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		out:      *out,
		nproc:    runtime.NumCPU(),
	}
	var (
		o   *outcome
		err error
	)
	switch cfg.workload {
	case "clean", "chaos", "batch":
		o, err = runServing(cfg, servingSpecs[cfg.workload])
	case "sim":
		o, err = runSim(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want clean, chaos, batch or sim)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lawbench:", err)
		os.Exit(2)
	}
	o.inputs["workload"] = cfg.workload
	o.inputs["seed"] = cfg.seed
	o.inputs["nproc"] = cfg.nproc
	o.inputs["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.inputs["trace"] = cfg.trace
	printInputs(o.inputs)
	for _, v := range o.violations {
		fmt.Fprintln(os.Stderr, "lawbench: gate violation:", v)
	}
	res := result{
		Correct:   len(o.violations) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lawbench: encoding result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printInputs writes the input-property report, one JSON object (keys
// sorted) on a line of its own, ahead of the result line.
func printInputs(in map[string]any) {
	b, err := json.Marshal(in)
	if err != nil {
		b = []byte(`{}`)
	}
	fmt.Printf("inputs %s\n", b)
}

// spanPath names the span file of a traced run.
func spanPath(cfg config) string {
	return filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
