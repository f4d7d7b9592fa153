package main

// Seeded workload inputs. Everything the program under test receives is
// made here from the --seed argument, so the same seed gives the same
// inputs; the program sees only the generated sources and options.

import (
	"math/rand"
	"strconv"
	"strings"

	pmsynth "repro"
	"repro/internal/bench"
	"repro/internal/gen"
)

// designInput is one design of a sweep sample: its source and the sweep
// axes, budgets cp..cp+Slack crossed with Orders.
type designInput struct {
	Source string          `json:"source"`
	Slack  int             `json:"slack"`
	Orders []pmsynth.Order `json:"orders"`
}

// spec is the design's sweep over its axes at the given critical path.
func (in designInput) spec(cp, workers int) pmsynth.SweepSpec {
	return pmsynth.SweepSpec{BudgetMin: cp, BudgetMax: cp + in.Slack, Orders: in.Orders, Workers: workers}
}

// paperOrders are the three mux orders of the paper sweep.
var paperOrders = []pmsynth.Order{pmsynth.OrderOutputsFirst, pmsynth.OrderInputsFirst, pmsynth.OrderGreedyWeight}

// paperInputs is one paper-sweep sample: the seven built-in circuits, each
// over budgets cp..cp+8 and the three mux orders (189 configurations).
// The sample is the same for every seed: these are the paper's inputs.
func paperInputs() []designInput {
	var out []designInput
	for _, c := range append(bench.All(), bench.Extras()...) {
		out = append(out, designInput{Source: c.Source, Slack: 8, Orders: paperOrders})
	}
	return out
}

// largeConfig is the large-sweep design profile: about 570-660 nodes.
func largeConfig() gen.Config {
	c := gen.Default()
	c.Ops, c.Inputs, c.Outputs = 100, 4, 4
	return c
}

// largeSeed is the generator seed of large-sweep sample i: the sequence
// starts at the workload seed and never repeats within a run.
func largeSeed(seed int64, i int) int64 { return seed + int64(i) }

// largeInputs is large-sweep sample i: one fresh generated design over
// budgets cp..cp+4 in the default mux order.
func largeInputs(seed int64, i int) []designInput {
	src := gen.Source(largeSeed(seed, i), largeConfig())
	return []designInput{{Source: src, Slack: 4, Orders: []pmsynth.Order{pmsynth.OrderOutputsFirst}}}
}

// Serve-mix inputs. Hot designs are small generated programs; their
// synthesize and sweep requests are stored by the set-up daemon. Fresh
// synthesize requests rename a hot design, so the daemon has not seen the
// source yet its critical path is known without compiling in the load
// loop; fresh sweeps use new generated designs at their critical path.
const (
	hotDesigns      = 100 // generated designs behind the hot set
	hotEmit         = 60  // hot requests that ask for VHDL or Verilog
	hotSweeps       = 100 // hot sweep specs, one per hot design
	hotHeadFraction = 0.5 // share of hot synth keys drawn most often
)

// Generator seeds of the serve-mix designs. The hot designs are the same
// for every workload seed, so runs differ in the order and choice of
// requests rather than in what a request costs; each run starts from an
// empty store, so the daemon has never seen any of them. Fresh sweep
// designs take a sequence that starts at the workload seed.
const (
	hotSeedBase   = 1 << 24
	freshSeedBase = 1 << 25
)

func hotSource(j int) string { return gen.Source(hotSeedBase+int64(j), gen.Default()) }

// freshSweepSource is the k-th fresh sweep design of a run.
func freshSweepSource(seed int64, k int) string {
	return gen.Source(freshSeedBase+seed+int64(k), gen.Default())
}

// renamed returns src with its function renamed to fz_<k>: a source the
// daemon has never seen, with the same structure and critical path.
func renamed(src string, k int) string {
	return strings.Replace(src, "func fz(", "func fz_"+strconv.Itoa(k)+"(", 1)
}

// synthKey is one synthesize request: a design, options and emit set.
type synthKey struct {
	design int // hot design index
	budget int
	order  pmsynth.Order
	emit   string // "", "vhdl" or "verilog"
}

// servePlan is the serve-mix input set derived from the seed.
type servePlan struct {
	seed    int64
	sources []string // hot design sources
	cps     []int    // their critical paths
	hot     []synthKey
	head    int // hot[:head] is drawn with probability headDraw
	emit    []synthKey
}

func newServePlan(seed int64) (*servePlan, error) {
	p := &servePlan{seed: seed}
	for j := 0; j < hotDesigns; j++ {
		src := hotSource(j)
		d, err := pmsynth.Compile(src)
		if err != nil {
			return nil, err
		}
		cp, err := pmsynth.CriticalPath(d)
		if err != nil {
			return nil, err
		}
		p.sources = append(p.sources, src)
		p.cps = append(p.cps, cp)
		for b := cp; b <= cp+4; b++ {
			for _, o := range paperOrders {
				p.hot = append(p.hot, synthKey{design: j, budget: b, order: o})
			}
		}
	}
	rnd := rand.New(rand.NewSource(seed))
	rnd.Shuffle(len(p.hot), func(a, b int) { p.hot[a], p.hot[b] = p.hot[b], p.hot[a] })
	p.head = int(hotHeadFraction * float64(len(p.hot)))
	for j := 0; j < hotEmit; j++ {
		emit := "vhdl"
		if j%2 == 1 {
			emit = "verilog"
		}
		p.emit = append(p.emit, synthKey{design: j, budget: p.cps[j], order: pmsynth.OrderOutputsFirst, emit: emit})
	}
	return p, nil
}

// hotSweepSpec is the sweep of hot design j: budgets cp..cp+2 in two orders.
func (p *servePlan) hotSweepSpec(j int) pmsynth.SweepSpec {
	return pmsynth.SweepSpec{
		BudgetMin: p.cps[j], BudgetMax: p.cps[j] + 2,
		Orders: []pmsynth.Order{pmsynth.OrderOutputsFirst, pmsynth.OrderGreedyWeight},
	}
}

// freshSweepSpec sweeps a fresh design at its critical path (the zero
// budget axis) in the three mux orders; the second sweep of a pair adds the
// force-directed backend, so half its points are in the sweep-point cache.
func freshSweepSpec(second bool) pmsynth.SweepSpec {
	spec := pmsynth.SweepSpec{Orders: paperOrders}
	if second {
		spec.ForceDirected = []bool{false, true}
	}
	return spec
}
