// Command perfbench is the repository benchmark. It runs one workload from a
// seed, measures it for a fixed time, checks every output against a
// reference the measured run did not produce, and prints each metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, after perfbench/run.sh has built it):
//
//	perfbench --workload paper-sweep|large-sweep|serve-mix --seed N \
//	          --seconds S --trace 0|1
//
// With --trace 0 the end-to-end metrics are printed; with --trace 1 a
// separate traced run prints the per-layer metrics. Layer timings are taken
// from outside the program: by wrapping calls into each layer's public
// functions (the sweep workloads) or from the daemon's SDK responses,
// /metrics and /proc (serve-mix). See README.md for the workloads and the
// meaning of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: paper-sweep, large-sweep or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() != 0 {
		return options{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"paper-sweep": runPaperSweep,
	"large-sweep": runLargeSweep,
	"serve-mix":   runServeMix,
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	out, err := workloads[opt.workload](opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	res, err := out.result(opt.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	out.print(stdout, opt.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metricDef declares one metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system sees, printed by every
// workload with --trace 0. Every workload defines each of them (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cfg_per_s", "1/s"},
	{"sweep_ms_p50", "ms"},
	{"sweep_ms_p90", "ms"},
	{"synth_ms_p50", "ms"},
	{"synth_ms_p90", "ms"},
	{"req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics printed with --trace 1. A workload
// whose path does not exercise a layer reports it as 0 and marks it n/a in
// the human-readable listing.
var perLayer = []metricDef{
	{"silage.compile_ms", "ms"},
	{"silage.compile_allocs", "count"},
	{"core.schedule_ms", "ms"},
	{"core.schedule_allocs", "count"},
	{"core.baseline_ms", "ms"},
	{"core.baseline_allocs", "count"},
	{"alloc.bind_ms", "ms"},
	{"alloc.bind_allocs", "count"},
	{"ctrl.controller_ms", "ms"},
	{"ctrl.controller_allocs", "count"},
	{"power.activity_ms", "ms"},
	{"power.activity_allocs", "count"},
	{"power.exact_frac", "frac"},
	{"flow.overhead_ms", "ms"},
	{"flow.speedup", "x"},
	{"flow.efficiency", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"server.synth_cached_ms_p50", "ms"},
	{"server.synth_cached_ms_p99", "ms"},
	{"server.synth_computed_ms_p50", "ms"},
	{"server.synth_computed_ms_p99", "ms"},
	{"server.sweep_submit_ms_p50", "ms"},
	{"server.sweep_warm_frac", "frac"},
	{"server.sweep_dedup_frac", "frac"},
	{"server.cpu_ms_per_req", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p90", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.run_ms_p90", "ms"},
	{"jobs.shed_frac", "frac"},
	{"cache.result_hit_frac", "frac"},
	{"cache.store_hit_frac", "frac"},
	{"cache.store_puts", "count"},
	{"cache.store_entries_at_start", "count"},
	{"cache.design_hit_frac", "frac"},
	{"cache.sweeppoint_hit_frac", "frac"},
	{"client.retries", "count"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted  int // operations attempted in the measured region
	failed     int // operations that returned an error
	mismatches int // outputs that differ from their reference
	samples    int // measured samples (sweeps or requests)
	values     map[string]float64
	notes      []string // extra human-readable lines (shares, sample counts)
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// set records a metric value; the name must be declared in endToEnd or
// perLayer.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) notef(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defs returns the metric set printed in the given mode.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// result builds the final JSON object. Every metric of the mode must have
// been measured (perLayer ones a workload does not exercise may be absent
// and read as 0); end-to-end metrics must be positive.
func (o *outcome) result(trace bool) (*result, error) {
	if o.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{
		Correct:   o.mismatches == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, d := range defs(trace) {
		v, ok := o.values[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if !trace && !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s = %v, want a positive value", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes the human-readable listing: every metric of the mode, then
// the correctness counters and notes.
func (o *outcome) print(w io.Writer, trace bool) {
	for _, d := range defs(trace) {
		v, ok := o.values[d.name]
		if !ok {
			fmt.Fprintf(w, "%-30s %14s %s\n", d.name, "n/a", d.unit)
			continue
		}
		fmt.Fprintf(w, "%-30s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%-30s %14d %s\n", "mismatches", o.mismatches, "count")
	fmt.Fprintf(w, "%-30s %14.4f %s\n", "failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "frac")
	fmt.Fprintf(w, "%-30s %14d %s\n", "samples", o.samples, "count")
	for _, n := range o.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. It returns 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
