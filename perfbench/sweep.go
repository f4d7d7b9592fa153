package main

// The sweep workloads, parent side: spawn one child per measured sample,
// reduce the samples to metrics, and then check each sample's tables
// against a workers=1 reference computed by a separate child.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// goldenTable2 is the committed Table II of the paper circuits, relative to
// the repository root the benchmark runs from.
const goldenTable2 = "internal/tables/testdata/table2.golden"

// sweepWorkload describes one sweep workload.
type sweepWorkload struct {
	// inputs returns sample i's designs.
	inputs func(i int) []designInput
	// fixed means every sample has the same inputs, so one reference
	// serves the whole run.
	fixed bool
	// compileInSetup compiles the designs before the measured region.
	compileInSetup bool
	// golden checks the reference against goldenTable2.
	golden bool
}

func runPaperSweep(opt options) (*outcome, error) {
	return runSweep(opt, sweepWorkload{
		inputs:         func(int) []designInput { return paperInputs() },
		fixed:          true,
		compileInSetup: true,
		golden:         true,
	})
}

func runLargeSweep(opt options) (*outcome, error) {
	return runSweep(opt, sweepWorkload{
		inputs: func(i int) []designInput { return largeInputs(opt.seed, i) },
	})
}

// childRun is one finished child process.
type childRun struct {
	res   *childResult
	setup time.Duration // from process start to its "ready" line
	rssMB float64       // the child's peak resident set
}

// spawn runs the benchmark binary in child mode on job.
func spawn(job childJob) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArg)
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	setup := time.Since(start)
	var res childResult
	if rerr == nil && line == "ready\n" {
		rerr = json.NewDecoder(br).Decode(&res)
	} else if rerr == nil {
		rerr = fmt.Errorf("child wrote %q before ready", line)
	}
	werr := cmd.Wait()
	if rerr != nil || werr != nil {
		return nil, fmt.Errorf("%s child: %w", job.Mode, errors.Join(rerr, werr))
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &childRun{res: &res, setup: setup, rssMB: rss}, nil
}

// reference runs the reference child for ins and returns its result plus
// the mismatches it found by itself: verify divergences and, when asked,
// golden Table II rows that differ.
func reference(ins []designInput, golden bool) (*childResult, int, []string, error) {
	run, err := spawn(childJob{Mode: modeReference, Workers: 1, Designs: ins})
	if err != nil {
		return nil, 0, nil, err
	}
	ref := run.res
	bad := len(ref.Divergences)
	notes := append([]string(nil), ref.Divergences...)
	if golden {
		data, err := os.ReadFile(goldenTable2)
		if err != nil {
			return nil, 0, nil, err
		}
		n, gnotes := checkGolden(string(data), ref, ins)
		bad += n
		notes = append(notes, gnotes...)
	}
	return ref, bad, notes, nil
}

// checkGolden compares every measured row of the golden Table II with the
// reference's row at the same circuit and budget in the first mux order.
// It counts differing or missing rows, and fails when no row was checked.
func checkGolden(golden string, ref *childResult, ins []designInput) (int, []string) {
	bad, checked := 0, 0
	var notes []string
	for _, line := range strings.Split(golden, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] == "paper" {
			continue
		}
		budget, err := strconv.Atoi(f[1])
		if err != nil {
			continue // header lines
		}
		found := false
		for i, rows := range ref.Rows {
			if len(rows) == 0 || !strings.HasPrefix(rows[0], f[0]+" ") {
				continue
			}
			idx := (budget - ref.CPs[i]) * len(ins[i].Orders)
			if idx >= 0 && idx < len(rows) && rows[idx] == line {
				found = true
			}
		}
		checked++
		if !found {
			bad++
			notes = append(notes, "golden Table II row differs: "+line)
		}
	}
	if checked == 0 {
		bad++
		notes = append(notes, "golden Table II has no measured rows")
	}
	return bad, notes
}

// compareTimed counts the outputs of a timed sample that differ from the
// reference: each table byte for byte, and each Synthesize row against the
// reference's first point of the same design.
func compareTimed(res, ref *childResult) int {
	bad := 0
	for i := range ref.Tables {
		if i >= len(res.Tables) || res.Tables[i] != ref.Tables[i] {
			bad++
		}
		if i >= len(res.SynthRows) || len(ref.Rows[i]) == 0 || res.SynthRows[i] != ref.Rows[i][0] {
			bad++
		}
	}
	return bad
}

// measured is one measured sample awaiting its check: its inputs and the
// results whose outputs must equal the reference's.
type measured struct {
	ins  []designInput
	runs []*childResult
}

// checkSamples compares every measured sample with its reference. A
// fixed-input workload has one reference for the run; otherwise each
// sample's reference is computed after the measured region, one child per
// CPU at a time.
func checkSamples(w sweepWorkload, samples []measured, out *outcome) error {
	if w.fixed {
		ref, bad, notes, err := reference(w.inputs(0), w.golden)
		if err != nil {
			return err
		}
		out.mismatches += bad
		out.notes = append(out.notes, notes...)
		for _, m := range samples {
			for _, res := range m.runs {
				out.mismatches += compareTimed(res, ref)
			}
		}
		return nil
	}
	var mu sync.Mutex
	var errs []error
	parallel(len(samples), func(i int) {
		ref, bad, notes, err := reference(samples[i].ins, w.golden)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
			return
		}
		out.mismatches += bad
		out.notes = append(out.notes, notes...)
		for _, res := range samples[i].runs {
			out.mismatches += compareTimed(res, ref)
		}
	})
	return errors.Join(errs...)
}

func runSweep(opt options, w sweepWorkload) (*outcome, error) {
	out := newOutcome()
	var samples []measured
	var err error
	if opt.trace {
		samples, err = tracedLoop(opt, w, out)
	} else {
		samples, err = timedLoop(opt, w, out)
	}
	if err != nil {
		return nil, err
	}
	return out, checkSamples(w, samples, out)
}

// timedLoop measures untraced samples at workers = nproc for opt.seconds
// of wall time.
func timedLoop(opt options, w sweepWorkload, out *outcome) ([]measured, error) {
	workers := runtime.NumCPU()
	var samples []measured
	var setups, sweeps, synths, rss []float64
	var configs int
	var sampleNs, synthNs int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < opt.seconds; i++ {
		ins := w.inputs(i)
		out.attempted += 2 * len(ins) // one sweep and one synthesis per design
		run, err := spawn(childJob{Mode: modeTimed, Workers: workers, CompileInSetup: w.compileInSetup, Designs: ins})
		if err != nil {
			out.failed += 2 * len(ins)
			out.notef("sample %d: %v", i, err)
			continue
		}
		res := run.res
		out.failed += res.Failed
		samples = append(samples, measured{ins: ins, runs: []*childResult{res}})
		setups = append(setups, run.setup.Seconds())
		sweeps = append(sweeps, ms(time.Duration(res.CompileNs+res.SweepNs)))
		rss = append(rss, run.rssMB)
		configs += res.Configs
		sampleNs += res.CompileNs + res.SweepNs
		for _, ns := range res.SynthNs {
			synths = append(synths, ms(time.Duration(ns)))
			synthNs += ns
		}
	}
	out.samples = len(samples)
	if out.samples == 0 {
		return nil, errors.New("no sample completed")
	}
	out.set("setup_s", quantile(setups, 0.5))
	out.set("cfg_per_s", ratio(float64(configs), time.Duration(sampleNs).Seconds()))
	out.set("sweep_ms_p50", quantile(sweeps, 0.5))
	out.set("sweep_ms_p90", quantile(sweeps, 0.9))
	out.set("synth_ms_p50", quantile(synths, 0.5))
	out.set("synth_ms_p90", quantile(synths, 0.9))
	out.set("req_per_s", ratio(float64(out.attempted-out.failed), time.Duration(sampleNs+synthNs).Seconds()))
	out.set("peak_rss_mb", quantile(rss, 0.5))
	out.notef("%d samples at workers=%d, %d configs, %d syntheses", out.samples, workers, configs, len(synths))
	return samples, nil
}

// tracedLoop runs, per sample, the untraced sweep at workers=1 and at
// workers=nproc and the traced run, each in its own child, and reduces
// each per-layer figure to its median over samples.
func tracedLoop(opt options, w sweepWorkload, out *outcome) ([]measured, error) {
	workers := runtime.NumCPU()
	var samples []measured
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < opt.seconds; i++ {
		ins := w.inputs(i)
		// Each untraced child sweeps and synthesizes every design; the
		// traced child runs every design's configurations.
		out.attempted += 5 * len(ins)
		one, err1 := spawn(childJob{Mode: modeTimed, Workers: 1, CompileInSetup: w.compileInSetup, Designs: ins})
		many, err2 := spawn(childJob{Mode: modeTimed, Workers: workers, CompileInSetup: w.compileInSetup, Designs: ins})
		traced, err3 := spawn(childJob{Mode: modeTraced, Designs: ins})
		if err := errors.Join(err1, err2, err3); err != nil {
			out.failed += 5 * len(ins)
			out.notef("sample %d: %v", i, err)
			continue
		}
		ts := traced.res.Trace
		out.failed += one.res.Failed + many.res.Failed + ts.Failed
		out.mismatches += checkTraceSums(ts, out)
		samples = append(samples, measured{ins: ins, runs: []*childResult{one.res, many.res}})

		cfgs := float64(ts.Configs)
		add("silage.compile_ms", ms(time.Duration(ts.CompileNs))/float64(ts.Designs))
		add("silage.compile_allocs", float64(ts.CompileAllocs)/float64(ts.Designs))
		for pass, layer := range passLayer {
			add(layer+"_ms", ms(time.Duration(ts.PassNs[pass]))/cfgs)
			add(layer+"_allocs", float64(ts.PassAllocs[pass])/cfgs)
		}
		add("power.exact_frac", float64(ts.Exact)/cfgs)
		add("flow.overhead_ms", ms(time.Duration(ts.OverheadNs))/cfgs)
		speedup := float64(one.res.SweepNs) / float64(many.res.SweepNs)
		add("flow.speedup", speedup)
		add("flow.efficiency", speedup/float64(workers))
		mcfgs := float64(many.res.Configs)
		add("runtime.alloc_mb", float64(many.res.AllocBytes)/(1<<20)/mcfgs)
		add("runtime.gc_cycles", float64(many.res.GCCycles)/mcfgs)
		add("runtime.gc_pause_ms", ms(time.Duration(many.res.GCPauseNs))/mcfgs)
		add("trace.overhead_frac", float64(ts.LoopNs)/float64(one.res.SweepNs)-1)
	}
	out.samples = len(samples)
	if out.samples == 0 {
		return nil, errors.New("no sample completed")
	}
	for name, xs := range per {
		out.set(name, quantile(xs, 0.5))
	}
	out.notef("%d traced samples; per-layer figures are medians over samples, per config unless per design", out.samples)
	return samples, nil
}

// checkTraceSums checks the traced accounting: in every configuration the
// wrapped pass times fit inside Pipeline.Run's wall time, and pass time
// plus overhead plus the wrappers' own bookkeeping add up to the wall time.
func checkTraceSums(ts *traceStats, out *outcome) int {
	sum := ts.OverheadNs + ts.BookkeepingNs
	for _, ns := range ts.PassNs {
		sum += ns
	}
	if ts.NegativeOverhead > 0 || ts.OverheadNs < 0 || sum != ts.WallNs {
		out.notef("traced accounting inconsistent: passes+overhead+bookkeeping=%dns, wall=%dns, %d configs with negative overhead",
			sum, ts.WallNs, ts.NegativeOverhead)
		return 1
	}
	return 0
}
