package flow

// Sweep-point caching. A design-space sweep runs the pipeline once per
// configuration; the serving layer runs whole sweeps repeatedly as
// clients iterate on budgets and orders over the same design. The
// pipeline is deterministic — (graph, width, config) fully determines
// every artifact — so a PointCache memoizes completed Contexts keyed by
// the graph's content hash plus a canonical encoding of the width and
// configuration. A repeated sweep point returns the cached Context
// without running any pass.
//
// A PointCache is an owned object, not process state: its owner (the
// pmsynthd server builds one per Server) attaches it to the context of
// the sweeps that may share it with WithPointCache. A sweep whose
// context carries no cache computes every point.
//
// Only successful runs are cached (a failure, including cancellation,
// retries on the next request), and a cached Context has its Ctx field
// cleared so no canceled context outlives the run that computed it.
// Cached Contexts are shared: consumers treat sweep results as read-only
// artifacts, which is already the contract for Contexts handed out by
// RunAll.

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/cdfg"
	"repro/internal/core"
)

// DefaultPointCacheEntries is the default capacity of a server's
// sweep-point cache. Entries hold full pipeline artifacts (schedules,
// bindings, controllers), so the default stays modest; the pmsynthd flag
// -sweep-point-cache-entries overrides it.
const DefaultPointCacheEntries = 512

// PointCache memoizes completed sweep points. A nil *PointCache is the
// disabled cache: it stores nothing and reports zero stats. It is safe
// for concurrent use.
type PointCache struct {
	c *cache.Cache[*Context]
}

// NewPointCache returns a cache of up to entries sweep points, or nil
// (the disabled cache) when entries <= 0.
func NewPointCache(entries int) *PointCache {
	if entries <= 0 {
		return nil
	}
	return &PointCache{c: cache.New[*Context](entries)}
}

// Stats snapshots the cache counters. A disabled cache reports zeros.
func (pc *PointCache) Stats() cache.Stats {
	if pc == nil {
		return cache.Stats{}
	}
	return pc.c.Stats()
}

type pointCacheKey struct{}

// WithPointCache returns a context whose sweeps (RunAll) memoize their
// points in pc. A nil pc attaches the disabled cache.
func WithPointCache(ctx context.Context, pc *PointCache) context.Context {
	return context.WithValue(ctx, pointCacheKey{}, pc)
}

// pointCacheFrom returns the cache attached to ctx, or nil.
func pointCacheFrom(ctx context.Context) *PointCache {
	pc, _ := ctx.Value(pointCacheKey{}).(*PointCache)
	return pc
}

// get returns the Context memoized under key, computing it with run on a
// miss. Concurrent requests for one key coalesce onto a single run;
// failed runs are returned to their caller but never cached.
func (pc *PointCache) get(key string, run func() *Context) *Context {
	var failed *Context
	fc, err := pc.c.GetOrCompute(key, func() (*Context, error) {
		fc := run()
		if fc.Err != nil {
			// Keep the Context (the caller reports its Err) but make the
			// cache skip it so a later request retries.
			failed = fc
			return nil, fc.Err
		}
		// A cached Context must not pin the requester's cancellation
		// context beyond the run that computed it.
		fc.Ctx = nil
		return fc, nil
	})
	if err != nil {
		if failed != nil {
			return failed
		}
		// Joined another caller's failed computation: that failure may
		// have been a cancellation of *their* ctx, so run locally rather
		// than report a foreign error.
		return run()
	}
	return fc
}

// pointKey canonically encodes one sweep point. The pipeline signature
// (comma-joined pass names) leads so sweeps over different pipelines never
// share entries; the graph contributes its memoized content hash; width
// and every Config field follow in a fixed order, with map fields
// (resources, weights) emitted in sorted key order and float weights
// encoded bit-exactly.
func pointKey(sig string, g *cdfg.Graph, width int, cfg core.Config) string {
	var b strings.Builder
	b.Grow(96 + len(sig))
	b.WriteString(sig)
	b.WriteByte('|')
	b.WriteString(g.ContentHash())
	sep := func() { b.WriteByte('|') }
	num := func(v int64) {
		sep()
		b.WriteString(strconv.FormatInt(v, 10))
	}
	num(int64(width))
	num(int64(cfg.Budget))
	num(int64(cfg.II))
	num(int64(cfg.Order))
	if cfg.ForceDirected {
		num(1)
	} else {
		num(0)
	}
	sep()
	if cfg.Resources != nil {
		classes := make([]cdfg.Class, 0, len(cfg.Resources))
		for c := range cfg.Resources {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		b.WriteByte('r')
		for _, c := range classes {
			num(int64(c))
			num(int64(cfg.Resources[c]))
		}
	}
	sep()
	if cfg.Weights != nil {
		classes := make([]cdfg.Class, 0, len(cfg.Weights))
		for c := range cfg.Weights {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		b.WriteByte('w')
		for _, c := range classes {
			num(int64(c))
			num(int64(math.Float64bits(cfg.Weights[c])))
		}
	}
	return b.String()
}
