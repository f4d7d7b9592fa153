package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/silage"
)

var allOrders = []Order{OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight, OrderExhaustive}

// checkPassWindows runs the pass of every candidate order of cfg over g
// and checks it against the full recompute after every mux:
//   - the incremental window equals sched.AnalyzeWindow of the pass's
//     graph, whether the mux was committed or reverted;
//   - only a managed mux leaves control edges behind;
//   - a mux refused for slack is one whose serialization the full
//     recompute finds infeasible.
func checkPassWindows(t testing.TB, g *cdfg.Graph, cfg Config) {
	t.Helper()
	gt, orders, err := prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range orders {
		p, err := newPass(g.Clone(), cfg.Budget, len(order))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range order {
			mg := gt.of(m)
			edges := len(p.graph.ControlEdges())
			if err := p.step(mg); err != nil {
				t.Fatal(err)
			}
			verdict := p.outcomes[len(p.outcomes)-1].verdict
			want, err := sched.AnalyzeWindow(p.graph, cfg.Budget)
			if err != nil {
				t.Fatal(err)
			}
			got := p.win.Window()
			if !slices.Equal(got.ASAP, want.ASAP) || !slices.Equal(got.ALAP, want.ALAP) {
				t.Fatalf("%s budget %d order %v, mux %s (%v): incremental window %v/%v, recompute %v/%v",
					g.Name, cfg.Budget, cfg.Order, g.Node(m).Name, verdict, got.ASAP, got.ALAP, want.ASAP, want.ALAP)
			}
			if grew := len(p.graph.ControlEdges()) != edges; (grew && verdict != VerdictManaged) || !want.Feasible() {
				t.Fatalf("%s budget %d: mux %s (%v) left edges %v, window feasible %v",
					g.Name, cfg.Budget, g.Node(m).Name, verdict, grew, want.Feasible())
			}
			if verdict == VerdictNoSlack {
				tried := p.graph.Clone()
				for _, top := range mg.tops {
					if !tried.HasControlEdge(mg.sel, top) {
						if err := tried.AddControlEdge(mg.sel, top); err != nil {
							t.Fatal(err)
						}
					}
				}
				if w, err := sched.AnalyzeWindow(tried, cfg.Budget); err != nil || w.Feasible() {
					t.Fatalf("%s budget %d: mux %s refused, but the recompute finds it feasible (err %v)",
						g.Name, cfg.Budget, g.Node(m).Name, err)
				}
			}
		}
	}
}

// TestIncrementalWindowBuiltins covers the paper's circuits over the
// budgets of the paper sweep, in every mux order.
func TestIncrementalWindowBuiltins(t *testing.T) {
	for _, c := range append(bench.All(), bench.Extras()...) {
		g := c.Graph()
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		for budget := cp; budget <= cp+8; budget++ {
			for _, order := range allOrders {
				checkPassWindows(t, g, Config{Budget: budget, Order: order, Weights: power.Weights})
			}
		}
	}
}

// TestIncrementalWindowGenerated covers generated designs. Exhaustive order
// runs only where the permutation count stays small.
func TestIncrementalWindowGenerated(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		d, err := silage.Compile(gen.Source(seed, gen.Default()))
		if err != nil {
			t.Fatal(err)
		}
		g := d.Graph
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		for budget := cp; budget <= cp+3; budget++ {
			for _, order := range allOrders {
				if order == OrderExhaustive && len(g.Muxes()) > 5 {
					continue
				}
				checkPassWindows(t, g, Config{Budget: budget, Order: order, Weights: power.Weights})
			}
		}
	}
}

// TestSerializationClosingCycleIsError: with a user control edge from a
// gated operation to the select, serializing the select before it closes a
// cycle. Schedule and Explain return the cycle error of a full window
// recompute; they do not treat the mux as merely lacking slack.
func TestSerializationClosingCycleIsError(t *testing.T) {
	g := compile(t, absDiffSrc)
	if err := g.AddControlEdge(g.Lookup("d1"), g.Lookup("g")); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("user edge alone must be acyclic: %v", err)
	}
	const want = "cdfg: graph contains a cycle"
	if _, err := Schedule(g, Config{Budget: 5}); err == nil || !errors.Is(err, cdfg.ErrCycle) || err.Error() != want {
		t.Fatalf("Schedule error = %v, want %q", err, want)
	}
	if _, err := Explain(g, Config{Budget: 5}); err == nil || err.Error() != want {
		t.Fatalf("Explain error = %v, want %q", err, want)
	}
}

// TestPassStepAllocations pins that a mux the pass refuses — for slack or
// for having nothing to gate — costs no allocation once the pass is warm.
func TestPassStepAllocations(t *testing.T) {
	cases := []struct {
		src     string
		budget  int
		verdict MuxVerdict
	}{
		{absDiffSrc, 2, VerdictNoSlack},
		{`
func p(a: num<8>, b: num<8>, s: bool) o: num<8> =
begin
    o = if s -> a || b fi;
end
`, 2, VerdictNothingToGate},
	}
	for _, c := range cases {
		g := compile(t, c.src)
		gt := analyzeGating(g)
		mg := &gt[0]
		p, err := newPass(g.Clone(), c.budget, 1)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			p.outcomes = p.outcomes[:0]
			if err := p.step(mg); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the edge lists and the undo log
		if p.outcomes[0].verdict != c.verdict {
			t.Fatalf("verdict %v, want %v", p.outcomes[0].verdict, c.verdict)
		}
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("%v step allocates %v times, want 0", c.verdict, n)
		}
	}
}

// FuzzIncrementalWindow checks the pass's incremental window against the
// full recompute on a random generated design, budget and mux order.
func FuzzIncrementalWindow(f *testing.F) {
	f.Add(int64(0), byte(12), byte(3), byte(0), byte(0))
	f.Add(int64(7), byte(20), byte(4), byte(2), byte(2))
	f.Add(int64(42), byte(6), byte(2), byte(1), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, ops, fanin, slack, order byte) {
		cfg := gen.Default()
		cfg.Ops = 1 + int(ops%24)
		cfg.MuxFanIn = 2 + int(fanin%4)
		cfg.AllowShift = ops%2 == 0
		d, err := silage.Compile(gen.Source(seed, cfg))
		if err != nil {
			t.Fatal(err)
		}
		g := d.Graph
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		o := allOrders[int(order)%len(allOrders)]
		if o == OrderExhaustive && len(g.Muxes()) > 5 {
			o = OrderGreedyWeight // keep one execution cheap
		}
		checkPassWindows(t, g, Config{Budget: cp + int(slack%6), Order: o, Weights: power.Weights})
	})
}
