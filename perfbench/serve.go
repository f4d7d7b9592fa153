package main

// The serve-mix workload: the client SDK drives a pmsynthd binary built
// from the same tree, over loopback, in a closed loop with one client per
// CPU. A first daemon fills a disk store with the hot set; the timed daemon
// is restarted over that store with production defaults. Every response is
// checked, after the timed region, against the library result for the same
// input.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	pmsynth "repro"
	"repro/client"
)

// Request classes of the mix and their shares of all requests. The shares
// put the p50 of synthesize latency inside the memory-hit band and its p90
// inside the computed band, and the p50 of sweep latency inside the warm
// band and its p90 inside the computed band.
const (
	clsHot        = iota // hot synthesize: memory LRU or disk store
	clsEmit              // hot synthesize asking for VHDL or Verilog
	clsFresh             // synthesize of a new source (or its pair): compile, pipeline, store write
	clsWarmSweep         // sweep of a stored spec: restored or joined
	clsFreshSweep        // sweep of a new design (or its pair): queued and computed
	numClasses
)

var (
	classNames  = [numClasses]string{"hot-synth", "emit-synth", "fresh-synth", "warm-sweep", "fresh-sweep"}
	classShares = [numClasses]float64{0.62, 0.06, 0.20, 0.084, 0.036}
)

// headDraw is the probability a hot request draws from the head of the hot
// set; the rest draws from the tail, which mostly misses the memory LRU.
const headDraw = 0.9

// setupRestarts is how many times set-up restarts the daemon over the
// filled store; setup_s is the median.
const setupRestarts = 9

// daemon is one running pmsynthd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemons starts pmsynthd processes over one store, one at a time, and
// remembers the live one so an interrupted benchmark can stop it.
type daemons struct {
	bin, storeDir string
	mu            sync.Mutex
	live          *daemon
}

// start starts pmsynthd and waits until /healthz answers, returning the
// time that took.
func (ds *daemons) start() (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(ds.bin, "-addr", addr, "-store-dir", ds.storeDir)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	ds.mu.Lock()
	ds.live = d
	ds.mu.Unlock()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("pmsynthd at %s not healthy after 30s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopOnSignal stops the live daemon, removes work and exits when the
// benchmark receives SIGINT or SIGTERM before the returned function is
// called.
func (ds *daemons) stopOnSignal(work string) (release func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			ds.mu.Lock()
			if ds.live != nil {
				ds.live.stop()
			}
			os.RemoveAll(work)
			fmt.Fprintln(os.Stderr, "perfbench: interrupted")
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("pmsynthd did not stop within 20s")
	}
}

// procStat reads the process's CPU time and peak resident set from /proc.
func procStat(pid int) (cpu time.Duration, hwmMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second
	// on Linux).
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(ut+st) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, 0, err
			}
			hwmMB = kb / 1024
		}
	}
	return cpu, hwmMB, nil
}

// scrape reads every sample of GET /metrics, keyed by series (name plus
// labels). The SDK's Metrics keeps integer series only; histogram sums are
// floats.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// transport wraps the SDK's HTTP transport to observe, from outside, what
// the SDK does not report: sweep submission round trips and answers that
// make the SDK retry (429, 5xx, transport errors).
type transport struct {
	base      http.RoundTripper
	recording atomic.Bool
	retries   atomic.Int64
	mu        sync.Mutex
	submitMs  []float64
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if !t.recording.Load() {
		return resp, err
	}
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		t.retries.Add(1)
	} else if r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
		t.mu.Lock()
		t.submitMs = append(t.submitMs, ms(time.Since(start)))
		t.mu.Unlock()
	}
	return resp, err
}

// synthInput identifies one synthesize request's input.
type synthInput struct {
	source string
	opt    pmsynth.Options
	emit   string
}

func (p *servePlan) synthInput(k synthKey) synthInput {
	return synthInput{source: p.sources[k.design], opt: pmsynth.Options{Budget: k.budget, Order: k.order}, emit: k.emit}
}

func (in synthInput) request() client.SynthesizeRequest {
	req := client.SynthesizeRequest{Source: in.source, Options: client.Options{Budget: in.opt.Budget, Order: in.opt.Order.String()}}
	if in.emit != "" {
		req.Emit = []string{in.emit}
	}
	return req
}

// sweepInput identifies one sweep request's input.
type sweepInput struct {
	source string
	spec   pmsynth.SweepSpec
}

func (in sweepInput) request() client.SweepRequest {
	spec := client.SweepSpec{BudgetMin: in.spec.BudgetMin, BudgetMax: in.spec.BudgetMax, ForceDirected: in.spec.ForceDirected}
	for _, o := range in.spec.Orders {
		spec.Orders = append(spec.Orders, o.String())
	}
	return client.SweepRequest{Source: in.source, Spec: spec}
}

// served is one answered synthesize request, reduced to what is checked.
type served struct {
	in       synthInput
	cls      int
	row      client.Row
	artifact [32]byte // sha256 of the requested VHDL or Verilog text
	cached   bool
	ms       float64
}

// sweepServed is one answered sweep request.
type sweepServed struct {
	in    sweepInput
	cls   int
	job   client.SweepJob
	info  client.JobInfo
	ms    float64
	table string // fetched after the timed region
}

// loadResult gathers one client's records.
type loadResult struct {
	synths   []served
	sweeps   []sweepServed
	attempts [numClasses]int
	failed   int
	firstErr string
}

func (r *loadResult) fail(msg string) {
	if r.failed == 0 {
		r.firstErr = msg
	}
	r.failed++
}

// loadClient issues the mix in a closed loop until the deadline.
type loadClient struct {
	id   int
	plan *servePlan
	c    *client.Client
	rnd  *rand.Rand
	// Fresh synthesize and fresh sweep inputs drawn so far.
	nSynth, nSweep int
}

// newClientRand is client i's request stream for the workload seed.
func newClientRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

func (lc *loadClient) draw() int {
	u := lc.rnd.Float64()
	for cls, share := range classShares {
		if u < share {
			return cls
		}
		u -= share
	}
	return clsHot
}

// fresh numbers this client's next fresh input of one kind, disjoint from
// the other clients'. Consecutive inputs come in pairs on one source: the
// second request of a pair finds the design compiled (synthesize) or half
// of its points computed (sweep).
func (lc *loadClient) fresh(n *int, clients int) (source int, second bool) {
	m := *n
	*n++
	return (m/2)*clients + lc.id, m%2 == 1
}

func (lc *loadClient) run(ctx context.Context, deadline time.Time, clients int) *loadResult {
	p := lc.plan
	res := &loadResult{}
	for time.Now().Before(deadline) {
		cls := lc.draw()
		res.attempts[cls]++
		switch cls {
		case clsHot, clsEmit, clsFresh:
			var in synthInput
			switch cls {
			case clsHot:
				ks := p.hot[p.head:]
				if lc.rnd.Float64() < headDraw {
					ks = p.hot[:p.head]
				}
				in = p.synthInput(ks[lc.rnd.Intn(len(ks))])
			case clsEmit:
				in = p.synthInput(p.emit[lc.rnd.Intn(len(p.emit))])
			default:
				k, second := lc.fresh(&lc.nSynth, clients)
				j := k % len(p.sources)
				opt := pmsynth.Options{Budget: p.cps[j]}
				if second {
					opt.Budget++
				}
				in = synthInput{source: renamed(p.sources[j], k), opt: opt}
			}
			start := time.Now()
			r, err := lc.c.Synthesize(ctx, in.request())
			el := ms(time.Since(start))
			if err != nil {
				res.fail(err.Error())
				continue
			}
			s := served{in: in, cls: cls, row: r.Row, cached: r.Cached, ms: el}
			switch in.emit {
			case "vhdl":
				s.artifact = sha256.Sum256([]byte(r.VHDL))
			case "verilog":
				s.artifact = sha256.Sum256([]byte(r.Verilog))
			}
			res.synths = append(res.synths, s)
		default:
			var in sweepInput
			if cls == clsWarmSweep {
				j := lc.rnd.Intn(hotSweeps)
				in = sweepInput{source: p.sources[j], spec: p.hotSweepSpec(j)}
			} else {
				k, second := lc.fresh(&lc.nSweep, clients)
				in = sweepInput{source: freshSweepSource(p.seed, k), spec: freshSweepSpec(second)}
			}
			start := time.Now()
			job, info, err := lc.c.SweepAndWait(ctx, in.request(), nil)
			el := ms(time.Since(start))
			if err != nil || info.State != client.StateSucceeded {
				res.fail(fmt.Sprintf("sweep: %v %+v", err, info))
				continue
			}
			res.sweeps = append(res.sweeps, sweepServed{in: in, cls: cls, job: *job, info: *info, ms: el})
		}
	}
	return res
}

// fill stores the hot set through a first daemon: every hot and emit
// synthesize request and every hot sweep.
func fill(ctx context.Context, base string, p *servePlan) error {
	var ins []interface{}
	for _, k := range p.hot {
		ins = append(ins, p.synthInput(k))
	}
	for _, k := range p.emit {
		ins = append(ins, p.synthInput(k))
	}
	for j := 0; j < hotSweeps; j++ {
		ins = append(ins, sweepInput{source: p.sources[j], spec: p.hotSweepSpec(j)})
	}
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(base)
			for i := w; i < len(ins) && errs[w] == nil; i += workers {
				switch in := ins[i].(type) {
				case synthInput:
					_, errs[w] = c.Synthesize(ctx, in.request())
				case sweepInput:
					_, info, err := c.SweepAndWait(ctx, in.request(), nil)
					if err == nil && info.State != client.StateSucceeded {
						err = fmt.Errorf("fill sweep %s: %s", info.State, info.Err)
					}
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runServeMix(opt options) (*outcome, error) {
	// perfbench/run.sh builds pmsynthd next to this binary.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(exe)
	bin := filepath.Join(dir, "pmsynthd")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("pmsynthd binary: %w", err)
	}
	work, err := os.MkdirTemp(dir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	ds := &daemons{bin: bin, storeDir: filepath.Join(work, "store")}
	defer ds.stopOnSignal(work)()

	plan, err := newServePlan(opt.seed)
	if err != nil {
		return nil, fmt.Errorf("serve plan: %w", err)
	}
	ctx := context.Background()

	first, _, err := ds.start()
	if err != nil {
		return nil, err
	}
	err = fill(ctx, first.base, plan)
	if serr := first.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}

	var setups []float64
	var d *daemon
	for i := 0; i < setupRestarts; i++ {
		var took time.Duration
		if d, took, err = ds.start(); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRestarts-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()

	out, err := measureServe(ctx, opt, plan, d)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", quantile(setups, 0.5))
	return out, nil
}

// measureServe runs the timed closed loop against d and checks every
// response afterwards.
func measureServe(ctx context.Context, opt options, plan *servePlan, d *daemon) (*outcome, error) {
	out := newOutcome()
	clients := runtime.NumCPU()
	tr := &transport{base: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	hc := &http.Client{Transport: tr}

	m0, err := scrape(d.base)
	if err != nil {
		return nil, err
	}
	cpu0, _, err := procStat(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	tr.recording.Store(true)
	start := time.Now()
	deadline := start.Add(opt.seconds)
	results := make([]*loadResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lc := &loadClient{id: i, plan: plan, c: client.New(d.base, client.WithHTTPClient(hc)),
				rnd: newClientRand(opt.seed, i)}
			results[i] = lc.run(ctx, deadline, clients)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	tr.recording.Store(false)
	cpu1, hwm, err := procStat(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	m1, err := scrape(d.base)
	if err != nil {
		return nil, err
	}

	var synths []served
	var sweeps []sweepServed
	var attempts [numClasses]int
	for i, r := range results {
		synths = append(synths, r.synths...)
		sweeps = append(sweeps, r.sweeps...)
		for c, n := range r.attempts {
			attempts[c] += n
			out.attempted += n
		}
		out.failed += r.failed
		if r.failed > 0 {
			out.notef("client %d: %d failed, first: %s", i, r.failed, r.firstErr)
		}
	}
	if err := fetchTables(ctx, client.New(d.base), sweeps); err != nil {
		return nil, err
	}
	mism, notes := checkServed(synths, sweeps)
	out.mismatches += mism
	out.notes = append(out.notes, notes...)
	out.samples = len(synths) + len(sweeps)

	var synthMs, cachedMs, computedMs, sweepMs, queueMs, runMs []float64
	var warm, dedup, configs int
	for _, s := range synths {
		synthMs = append(synthMs, s.ms)
		if s.cached {
			cachedMs = append(cachedMs, s.ms)
		} else {
			computedMs = append(computedMs, s.ms)
		}
	}
	for _, s := range sweeps {
		sweepMs = append(sweepMs, s.ms)
		configs += s.job.Total
		switch {
		case s.job.Cached:
			warm++
		case s.job.Deduped:
			dedup++
		default:
			queueMs = append(queueMs, ms(s.info.Started.Sub(s.info.Created)))
			runMs = append(runMs, ms(s.info.Finished.Sub(s.info.Started)))
		}
	}
	done := float64(len(synths) + len(sweeps))
	out.set("cfg_per_s", float64(configs)/wall.Seconds())
	out.set("sweep_ms_p50", quantile(sweepMs, 0.5))
	out.set("sweep_ms_p90", quantile(sweepMs, 0.9))
	out.set("synth_ms_p50", quantile(synthMs, 0.5))
	out.set("synth_ms_p90", quantile(synthMs, 0.9))
	out.set("req_per_s", done/wall.Seconds())
	out.set("peak_rss_mb", hwm)

	delta := func(series string) float64 { return m1[series] - m0[series] }
	hitFrac := func(prefix string) float64 {
		h, m := delta(prefix+"_hits"), delta(prefix+"_misses")
		return ratio(h, h+m)
	}
	// meanMs is a histogram's mean over the timed region, in ms.
	meanMs := func(name, labels string) float64 {
		return 1000 * ratio(delta(name+"_sum"+labels), delta(name+"_count"+labels))
	}
	out.set("server.synth_cached_ms_p50", quantile(cachedMs, 0.5))
	out.set("server.synth_cached_ms_p99", quantile(cachedMs, 0.99))
	out.set("server.synth_computed_ms_p50", quantile(computedMs, 0.5))
	out.set("server.synth_computed_ms_p99", quantile(computedMs, 0.99))
	out.set("server.sweep_submit_ms_p50", quantile(tr.submitMs, 0.5))
	out.set("server.sweep_warm_frac", ratio(float64(warm), float64(len(sweeps))))
	out.set("server.sweep_dedup_frac", ratio(float64(dedup), float64(len(sweeps))))
	out.set("server.cpu_ms_per_req", ms(cpu1-cpu0)/done)
	out.set("jobs.queue_wait_ms_p50", quantile(queueMs, 0.5))
	out.set("jobs.queue_wait_ms_p90", quantile(queueMs, 0.9))
	out.set("jobs.run_ms_p50", quantile(runMs, 0.5))
	out.set("jobs.run_ms_p90", quantile(runMs, 0.9))
	out.set("jobs.shed_frac", ratio(delta("pmsynthd_sweep_shed"), delta("pmsynthd_sweep_requests")))
	out.set("cache.result_hit_frac", hitFrac("pmsynthd_cache"))
	out.set("cache.store_hit_frac", hitFrac("pmsynthd_store"))
	out.set("cache.store_puts", delta("pmsynthd_store_puts"))
	out.set("cache.store_entries_at_start", m0["pmsynthd_store_entries"])
	out.set("cache.design_hit_frac", hitFrac("pmsynthd_design_cache"))
	out.set("cache.sweeppoint_hit_frac", hitFrac("pmsynthd_sweeppoint_cache"))
	out.set("client.retries", float64(tr.retries.Load()))
	out.set("silage.compile_ms", meanMs("pmsynthd_compile_seconds", ""))
	for pass, layer := range passLayer {
		out.set(layer+"_ms", meanMs("pmsynthd_pass_duration_seconds", `{pass="`+pass+`"}`))
	}

	var shares []string
	for c, n := range attempts {
		shares = append(shares, fmt.Sprintf("%s %.3f", classNames[c], ratio(float64(n), float64(out.attempted))))
	}
	out.notef("%d clients, %d requests in %.1fs; class shares: %s", clients, out.attempted, wall.Seconds(), strings.Join(shares, ", "))
	out.notef("synthesize: %d cached, %d computed; sweeps: %d warm, %d deduped, %d computed",
		len(cachedMs), len(computedMs), warm, dedup, len(queueMs))
	byClass := make([][]float64, numClasses)
	for _, s := range synths {
		byClass[s.cls] = append(byClass[s.cls], s.ms)
	}
	for _, s := range sweeps {
		byClass[s.cls] = append(byClass[s.cls], s.ms)
	}
	for c, xs := range byClass {
		out.notef("%s latency ms: p10 %.3f p50 %.3f p90 %.3f (%d)", classNames[c],
			quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9), len(xs))
	}
	return out, nil
}

// fetchTables reads each distinct sweep job's table after the timed
// region, for checking.
func fetchTables(ctx context.Context, c *client.Client, sweeps []sweepServed) error {
	tables := map[string]string{}
	for i := range sweeps {
		s := &sweeps[i]
		t, ok := tables[s.job.ID]
		if !ok {
			r, err := c.JobResult(ctx, s.job.ID, client.ResultQuery{View: "table"})
			if err != nil {
				return fmt.Errorf("fetch table of job %s: %w", s.job.ID, err)
			}
			t = r.Table
			tables[s.job.ID] = t
		}
		s.table = t
	}
	return nil
}
