package flow

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// RunAll evaluates pipeline p (nil means Standard()) once per
// configuration over a bounded worker pool and returns one Context per
// configuration, in input order. Results are deterministic: the worker
// count affects wall-clock time only, never the artifacts.
//
// The shared read-only analyses of g (fanin cones, depth, height, critical
// path) are prewarmed once and flow into every worker's private clones, so
// the per-configuration runs do not recompute them. When ctx carries a
// PointCache (WithPointCache), completed points are memoized there:
// re-running a point for an identical (pipeline, graph, width, config)
// returns the cached Context without executing any pass. Without one,
// every point runs the pipeline.
//
// observe, when non-nil, is called once per configuration immediately
// after it finishes (successfully or not), with the configuration's input
// index, its Context and the wall-clock time the point took — a cache hit
// reports the lookup, not the original run. Observers feed progress
// reporting and per-point timing in the layers above (the pmsynth sweep
// API and the pmsynthd job manager). They are called from the worker
// goroutines, so calls may arrive out of input order and concurrently;
// observe must be safe for concurrent use. Observation never influences
// the artifacts.
//
// A configuration whose pipeline fails has its error recorded in the
// Context's Err field; RunAll itself returns an error only when ctx is
// canceled, in which case the contexts evaluated so far are still
// returned (unevaluated slots are nil).
func RunAll(ctx context.Context, p *Pipeline, g *cdfg.Graph, width int, cfgs []core.Config, workers int, observe func(i int, fc *Context, elapsed time.Duration)) ([]*Context, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = Standard()
	}
	pc := pointCacheFrom(ctx)
	sig := strings.Join(p.Names(), ",")
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	out := make([]*Context, len(cfgs))
	if len(cfgs) == 0 {
		return out, ctx.Err()
	}

	g.PrewarmAnalyses()

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fc, elapsed := runPoint(ctx, pc, p, sig, g, width, cfgs[i])
				out[i] = fc
				if observe != nil {
					observe(i, fc, elapsed)
				}
			}
		}()
	}
feed:
	for i := range cfgs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return out, ctx.Err()
}

// runPoint evaluates one sweep point, through pc when it is non-nil, and
// reports how long the evaluation took.
//
// With a telemetry.Trace on ctx, each evaluation records a "point" span
// (budget/II config attrs) whose children are the per-pass spans; a
// point answered from the cache records the span with cached=true and no
// pass children (the passes ran under whichever trace computed it).
func runPoint(ctx context.Context, pc *PointCache, p *Pipeline, sig string, g *cdfg.Graph, width int, cfg core.Config) (*Context, time.Duration) {
	//pmlint:allow determinism point wall-clock timing is telemetry only; it never feeds schedules, tables or fingerprints
	start := time.Now()
	ctx, psp := telemetry.StartSpan(ctx, "point")
	if psp != nil {
		psp.SetAttr("budget", strconv.Itoa(cfg.Budget))
		if cfg.II > 0 {
			psp.SetAttr("ii", strconv.Itoa(cfg.II))
		}
	}
	ran := false
	run := func() *Context {
		ran = true
		fc := &Context{Ctx: ctx, Graph: g, Width: width, Config: cfg}
		fc.Err = p.Run(fc)
		return fc
	}
	var fc *Context
	if pc == nil {
		fc = run()
	} else {
		fc = pc.get(pointKey(sig, g, width, cfg), run)
	}
	if !ran {
		psp.SetAttr("cached", "true")
	}
	psp.End()
	return fc, time.Since(start)
}
