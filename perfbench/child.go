package main

// Sweep-workload child processes. Every sweep sample runs in a fresh
// process, so no sweep point is ever served from a cache filled by an
// earlier sample: the points are cold by construction. The parent writes a
// childJob to the child's standard input; the child sets up, writes
// "ready\n" (the parent's set-up clock stops there), runs, and writes one
// childResult as JSON.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	pmsynth "repro"
	"repro/internal/verify"
)

// childArg is the first argument that selects child mode.
const childArg = "-child"

// Child modes.
const (
	modeTimed     = "timed"     // untraced sweep sample at the given workers
	modeTraced    = "traced"    // per-pass timing through flow.Pass wrappers
	modeReference = "reference" // workers=1 reference tables plus verify
)

type childJob struct {
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// CompileInSetup compiles the designs before "ready"; otherwise the
	// compile is part of the measured sample.
	CompileInSetup bool          `json:"compileInSetup"`
	Designs        []designInput `json:"designs"`
}

type childResult struct {
	Err string `json:"err,omitempty"`

	// Timed mode. CompileNs is 0 when the designs compiled in set-up.
	CompileNs int64    `json:"compileNs"`
	SweepNs   int64    `json:"sweepNs"`
	SynthNs   []int64  `json:"synthNs"`
	Configs   int      `json:"configs"`
	Failed    int      `json:"failed"` // sweeps or syntheses that failed
	Tables    []string `json:"tables"`
	// SynthRows holds each design's Synthesize row at its first sweep
	// configuration, formatted with Row.String.
	SynthRows  []string `json:"synthRows"`
	AllocBytes uint64   `json:"allocBytes"`
	GCCycles   uint32   `json:"gcCycles"`
	GCPauseNs  uint64   `json:"gcPauseNs"`

	// Traced mode.
	Trace *traceStats `json:"trace,omitempty"`

	// Reference mode: per design its critical path and each point's
	// Row.String in enumeration order, plus verify's findings.
	CPs         []int      `json:"cps,omitempty"`
	Rows        [][]string `json:"rows,omitempty"`
	Divergences []string   `json:"divergences,omitempty"`
}

func childMain(stdin io.Reader, stdout io.Writer) int {
	var job childJob
	if err := json.NewDecoder(stdin).Decode(&job); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: decode job: %v\n", err)
		return 2
	}
	var res *childResult
	var err error
	switch job.Mode {
	case modeTimed:
		res, err = timedSample(job, stdout)
	case modeTraced:
		res, err = tracedSample(job, stdout)
	case modeReference:
		res, err = referenceSample(job, stdout)
	default:
		err = fmt.Errorf("unknown mode %q", job.Mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: encode result: %v\n", err)
		return 1
	}
	return 0
}

func ready(w io.Writer) error {
	_, err := io.WriteString(w, "ready\n")
	return err
}

func compileAll(ins []designInput) ([]*pmsynth.Design, error) {
	out := make([]*pmsynth.Design, len(ins))
	for i, in := range ins {
		d, err := pmsynth.Compile(in.Source)
		if err != nil {
			return nil, fmt.Errorf("compile design %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// timedSample runs one measured sample: every design's sweep at
// job.Workers (compiling first when the compile is part of the sample),
// then one Synthesize per design at its first configuration, timed apart.
// A failed sweep or synthesis is counted, not fatal.
func timedSample(job childJob, stdout io.Writer) (*childResult, error) {
	var designs []*pmsynth.Design
	if job.CompileInSetup {
		var err error
		if designs, err = compileAll(job.Designs); err != nil {
			return nil, err
		}
	}
	if err := ready(stdout); err != nil {
		return nil, err
	}
	res := &childResult{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if !job.CompileInSetup {
		t := time.Now()
		var err error
		designs, err = compileAll(job.Designs)
		res.CompileNs = time.Since(t).Nanoseconds()
		if err != nil {
			return nil, err
		}
	}
	cps := make([]int, len(designs))
	for i, d := range designs {
		t := time.Now()
		cp, err := pmsynth.CriticalPath(d)
		var sr *pmsynth.SweepResult
		if err == nil {
			sr, err = pmsynth.Sweep(d, job.Designs[i].spec(cp, job.Workers))
		}
		res.SweepNs += time.Since(t).Nanoseconds()
		cps[i] = cp
		if err != nil {
			res.Failed++
			res.Tables = append(res.Tables, "")
			continue
		}
		res.Configs += len(sr.Points)
		for _, p := range sr.Points {
			if p.Err != nil {
				res.Failed++
				break
			}
		}
		res.Tables = append(res.Tables, sr.Table())
	}
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	for i, d := range designs {
		opt := pmsynth.Options{Budget: cps[i], Order: job.Designs[i].Orders[0]}
		t := time.Now()
		syn, err := pmsynth.Synthesize(d, opt)
		res.SynthNs = append(res.SynthNs, time.Since(t).Nanoseconds())
		if err != nil {
			res.Failed++
			res.SynthRows = append(res.SynthRows, "")
			continue
		}
		res.SynthRows = append(res.SynthRows, syn.Row().String())
	}
	return res, nil
}

// referenceMatrix is the verify matrix covering a design's sweep: the same
// budgets and orders, checked by the schedule-valid and behavioral stages
// (the behavioral stage compares against sim.Evaluate, an interpreter
// independent of the scheduler).
func referenceMatrix(in designInput) verify.Matrix {
	return verify.Matrix{
		BudgetSlack: in.Slack,
		Orders:      in.Orders,
		Workers:     []int{1},
		Vectors:     16,
		Stages:      []string{verify.StageSchedule, verify.StageBehavioral},
	}
}

// referenceSample computes the untimed reference: each design's sweep at
// workers=1, and, concurrently, verify's oracle over the same points.
func referenceSample(job childJob, stdout io.Writer) (*childResult, error) {
	designs, err := compileAll(job.Designs)
	if err != nil {
		return nil, err
	}
	if err := ready(stdout); err != nil {
		return nil, err
	}
	res := &childResult{CPs: make([]int, len(designs)), Rows: make([][]string, len(designs)),
		Tables: make([]string, len(designs))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, in := range job.Designs {
			rep := verify.CheckSource(in.Source, referenceMatrix(in), rand.New(rand.NewSource(int64(i)+1)))
			for _, d := range rep.Divergences {
				res.Divergences = append(res.Divergences, fmt.Sprintf("design %d: %s %s: %s", i, d.Stage, d.Point, d.Detail))
			}
		}
	}()
	var sweepErr error
	for i, d := range designs {
		cp, err := pmsynth.CriticalPath(d)
		if err != nil {
			sweepErr = err
			break
		}
		sr, err := pmsynth.Sweep(d, job.Designs[i].spec(cp, 1))
		if err != nil {
			sweepErr = err
			break
		}
		res.CPs[i] = cp
		res.Tables[i] = sr.Table()
		for _, p := range sr.Points {
			if p.Err != nil {
				res.Rows[i] = append(res.Rows[i], "error: "+p.Err.Error())
				continue
			}
			res.Rows[i] = append(res.Rows[i], p.Row.String())
		}
	}
	wg.Wait()
	if sweepErr != nil {
		return nil, fmt.Errorf("reference sweep: %w", sweepErr)
	}
	return res, nil
}
