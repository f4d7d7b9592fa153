package main

// The traced run of the sweep workloads. It times each layer from outside:
// pmsynth.Compile for silage, and every pass of flow.Standard() through a
// wrapping flow.Pass that reads the clock and the runtime's allocation
// counter around the inner pass. Nothing inside the program is
// instrumented. Configurations run one at a time (workers=1), so the
// process-wide allocation counter belongs to the pass being timed.

import (
	"fmt"
	"io"
	"runtime/metrics"
	"slices"
	"time"

	pmsynth "repro"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/power"
)

// standardPasses is flow.Standard()'s pass sequence. flow.Pipeline does not
// expose its passes, so tracedSample rebuilds the sequence and checks its
// names against flow.Standard().Names() before use.
func standardPasses() []flow.Pass {
	return []flow.Pass{flow.SchedulePass{}, flow.BindPass{}, flow.ControllerPass{}, flow.BaselinePass{}, flow.ActivityPass{}}
}

// passLayer names the metric prefix of each standard pass.
var passLayer = map[string]string{
	"schedule":   "core.schedule",
	"bind":       "alloc.bind",
	"controller": "ctrl.controller",
	"baseline":   "core.baseline",
	"activity":   "power.activity",
}

// traceStats are one traced sample's totals.
type traceStats struct {
	Designs       int              `json:"designs"`
	Configs       int              `json:"configs"`
	Failed        int              `json:"failed"`
	Exact         int              `json:"exact"`
	CompileNs     int64            `json:"compileNs"`
	CompileAllocs int64            `json:"compileAllocs"`
	PassNs        map[string]int64 `json:"passNs"`
	PassAllocs    map[string]int64 `json:"passAllocs"`
	// WallNs sums Pipeline.Run's wall time over configurations;
	// BookkeepingNs is the wrappers' own clock and counter reads inside
	// it, and OverheadNs is the rest once pass time is taken out.
	WallNs        int64 `json:"wallNs"`
	BookkeepingNs int64 `json:"bookkeepingNs"`
	OverheadNs    int64 `json:"overheadNs"`
	// NegativeOverhead counts configurations whose pass times exceeded
	// their wall time: the accounting is inconsistent.
	NegativeOverhead int `json:"negativeOverhead"`
	// LoopNs is the traced loop's total wall time, the traced
	// counterpart of an untraced workers=1 sweep.
	LoopNs int64 `json:"loopNs"`
}

// allocCounter reads the runtime's cumulative heap allocation count
// without allocating and without stopping the world.
type allocCounter struct {
	sample []metrics.Sample
}

func newAllocCounter() *allocCounter {
	return &allocCounter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() int64 {
	metrics.Read(a.sample)
	return int64(a.sample[0].Value.Uint64())
}

// timedPass wraps one pass, accumulating its time and allocations.
type timedPass struct {
	inner flow.Pass
	acc   *passAcc
}

type passAcc struct {
	allocs  *allocCounter
	ns      int64 // inner pass time
	objects int64 // inner pass allocations
	book    int64 // time spent reading the clock and counter
}

func (p timedPass) Name() string { return p.inner.Name() }

func (p timedPass) Run(c *flow.Context) error {
	t0 := time.Now()
	a0 := p.acc.allocs.read()
	t1 := time.Now()
	err := p.inner.Run(c)
	t2 := time.Now()
	a1 := p.acc.allocs.read()
	t3 := time.Now()
	p.acc.ns += t2.Sub(t1).Nanoseconds()
	p.acc.objects += a1 - a0
	p.acc.book += t1.Sub(t0).Nanoseconds() + t3.Sub(t2).Nanoseconds()
	return err
}

// tracedSample runs every configuration of every design through a
// Pipeline of wrapped standard passes, one configuration at a time.
func tracedSample(job childJob, stdout io.Writer) (*childResult, error) {
	inner := standardPasses()
	names := make([]string, len(inner))
	for i, p := range inner {
		names[i] = p.Name()
	}
	if want := flow.Standard().Names(); !slices.Equal(names, want) {
		return nil, fmt.Errorf("traced passes %v differ from flow.Standard() %v", names, want)
	}
	if err := ready(stdout); err != nil {
		return nil, err
	}
	counter := newAllocCounter()
	accs := make([]*passAcc, len(inner))
	wrapped := make([]flow.Pass, len(inner))
	for i, p := range inner {
		accs[i] = &passAcc{allocs: counter}
		wrapped[i] = timedPass{inner: p, acc: accs[i]}
	}
	pipe := flow.New(wrapped...)
	// inside is the time the wrappers have accounted for so far.
	inside := func() (ns int64) {
		for _, a := range accs {
			ns += a.ns + a.book
		}
		return ns
	}

	ts := &traceStats{PassNs: map[string]int64{}, PassAllocs: map[string]int64{}}
	for _, in := range job.Designs {
		a0 := counter.read()
		t := time.Now()
		d, err := pmsynth.Compile(in.Source)
		ts.CompileNs += time.Since(t).Nanoseconds()
		ts.CompileAllocs += counter.read() - a0
		ts.Designs++
		if err != nil {
			ts.Failed++
			continue
		}
		cp, err := pmsynth.CriticalPath(d)
		if err != nil {
			ts.Failed++
			continue
		}
		loop := time.Now()
		for b := cp; b <= cp+in.Slack; b++ {
			for _, o := range in.Orders {
				before := inside()
				fc := &flow.Context{Graph: d.Graph, Width: d.Width,
					Config: core.Config{Budget: b, Order: o, Weights: power.Weights}}
				start := time.Now()
				err := pipe.Run(fc)
				wall := time.Since(start).Nanoseconds()
				ts.Configs++
				if err != nil {
					ts.Failed++
				}
				if fc.ActivityExact {
					ts.Exact++
				}
				if wall < inside()-before {
					ts.NegativeOverhead++
				}
				ts.WallNs += wall
			}
		}
		ts.LoopNs += time.Since(loop).Nanoseconds()
	}
	for i, a := range accs {
		ts.PassNs[inner[i].Name()] = a.ns
		ts.PassAllocs[inner[i].Name()] = a.objects
		ts.BookkeepingNs += a.book
	}
	ts.OverheadNs = ts.WallNs - ts.BookkeepingNs
	for _, ns := range ts.PassNs {
		ts.OverheadNs -= ns
	}
	return &childResult{Trace: ts}, nil
}
