package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// muxGating is the dataflow part of the power management decision for one
// mux: its gateable sets and the tops that receive the serializing control
// edges. It depends only on dataflow edges, so a Schedule call derives it
// once per mux and every candidate order reuses it.
type muxGating struct {
	mux, sel cdfg.NodeID
	// trueSet and falseSet are the gated operations per branch, in
	// ascending ID order. They are shared by every pass of one analysis:
	// treat them as read-only.
	trueSet, falseSet []cdfg.NodeID
	// tops lists the true-branch tops, then the false-branch tops.
	tops []cdfg.NodeID
}

func (mg *muxGating) empty() bool { return len(mg.trueSet) == 0 && len(mg.falseSet) == 0 }

// gating holds the muxGating of every mux of a graph, in ascending mux ID.
type gating []muxGating

// analyzeGating derives the maximal gateable sets of every mux (paper
// Fig. 3 step 3 plus the fanout exclusions of §III) and their tops.
//
// A node is gateable on branch b when:
//   - it lies in the transitive fanin of input b,
//   - it is not in the fanin of the select (it helps compute the
//     condition) nor in the fanin of the other data input (it is needed
//     either way),
//   - every dataflow path from it reaches only gated nodes, ending at
//     input b of m ("no fanout to other nodes besides the current
//     multiplexor"),
//   - it is a datapath operation (IO and wiring have no input latches).
//
// Wire nodes (constant shifts) are transparent: they may sit between gated
// operations, but are never members of the gated set themselves.
func analyzeGating(g *cdfg.Graph) gating {
	muxes := g.Muxes()
	out := make(gating, len(muxes))
	cand, set := cdfg.NewBits(g.NumNodes()), cdfg.NewBits(g.NumNodes())
	for i, m := range muxes {
		args := g.Node(m).Args
		coneSel := g.FaninBits(args[cdfg.MuxSel])
		coneT := g.FaninBits(args[cdfg.MuxTrue])
		coneF := g.FaninBits(args[cdfg.MuxFalse])
		mg := &out[i]
		mg.mux, mg.sel = m, args[cdfg.MuxSel]
		mg.trueSet = gateable(g, m, coneT, coneSel, coneF, cand)
		mg.falseSet = gateable(g, m, coneF, coneSel, coneT, cand)
		mg.tops = appendTops(g, mg.tops, mg.trueSet, set)
		mg.tops = appendTops(g, mg.tops, mg.falseSet, set)
	}
	return out
}

// of returns the gating of mux m.
func (gt gating) of(m cdfg.NodeID) *muxGating {
	i, _ := slices.BinarySearchFunc(gt, m, func(mg muxGating, m cdfg.NodeID) int { return cmp.Compare(mg.mux, m) })
	return &gt[i]
}

// gateable computes the closed gated set for one branch cone, in ascending
// ID order. The closure runs over ops and wires (wires are transparent
// carriers) and the result keeps ops only. cand is an all-clear scratch set
// sized to the graph; it is left clear.
//
// The closure drops any candidate with a dataflow successor outside the
// kept candidates ∪ {m}. (A successor equal to m is necessarily via this
// branch's data input: select and other-input cones were excluded.) Every
// successor has a larger ID than its argument, so deciding candidates in
// descending ID order sees each successor's final membership, and one pass
// reaches the fixed point.
func gateable(g *cdfg.Graph, m cdfg.NodeID, cone, coneSel, coneOther, cand cdfg.Bits) []cdfg.NodeID {
	var ops []cdfg.NodeID
	for id := m - 1; id >= 0; id-- {
		if !cone.Has(id) || coneSel.Has(id) || coneOther.Has(id) {
			continue
		}
		n := g.Node(id)
		if !n.IsOp() && n.Class() != cdfg.ClassWire {
			continue
		}
		closed := true
		for _, s := range g.Succs(id) {
			if s != m && !cand.Has(s) {
				closed = false
				break
			}
		}
		if closed {
			cand.Add(id)
			if n.IsOp() {
				ops = append(ops, id)
			}
		}
	}
	clear(cand)
	slices.Reverse(ops)
	return ops
}

// appendTops appends the members of the gated set with no gated (or
// wire-transparent gated) predecessor: the "top nodes" that receive the
// control edges. members is ascending; set is an all-clear scratch set
// sized to the graph, left clear.
func appendTops(g *cdfg.Graph, tops, members []cdfg.NodeID, set cdfg.Bits) []cdfg.NodeID {
	for _, id := range members {
		set.Add(id)
	}
	for _, id := range members {
		isTop := true
		for _, p := range g.Preds(id) {
			if reachesSet(g, p, set) {
				isTop = false
				break
			}
		}
		if isTop {
			tops = append(tops, id)
		}
	}
	clear(set)
	return tops
}

// reachesSet reports whether id is in set or is a wire chain from a member.
func reachesSet(g *cdfg.Graph, id cdfg.NodeID, set cdfg.Bits) bool {
	for !set.Has(id) {
		n := g.Node(id)
		if n.Class() != cdfg.ClassWire {
			return false
		}
		id = n.Args[0]
	}
	return true
}

// muxOutcome records the verdict of the pass on one mux.
type muxOutcome struct {
	mux     cdfg.NodeID
	verdict MuxVerdict
}

// passResult is the outcome of one annotate-and-commit sweep over the
// muxes in a fixed order.
type passResult struct {
	graph   *cdfg.Graph
	managed []ManagedMux
	guards  sim.Guards
	// outcomes holds one verdict per mux, in processing order.
	outcomes []muxOutcome
}

// pass is an annotate-and-commit sweep in progress.
type pass struct {
	passResult
	win *sched.Incremental
}

// newPass starts a pass over work (a private clone, mutated as control
// edges are added) for n muxes.
func newPass(work *cdfg.Graph, budget, n int) (*pass, error) {
	win, err := sched.NewIncremental(work, budget)
	if err != nil {
		return nil, err
	}
	return &pass{
		passResult: passResult{graph: work, guards: make(sim.Guards), outcomes: make([]muxOutcome, 0, n)},
		win:        win,
	}, nil
}

// step executes Fig. 3 steps 4-10 for one mux: tentatively serialize the
// select driver before every gated top, and commit the mux if the budget
// still holds.
func (p *pass) step(mg *muxGating) error {
	verdict := VerdictNothingToGate
	if !mg.empty() {
		ok, err := p.win.Serialize(mg.sel, mg.tops)
		if err != nil {
			return err
		}
		// Paper step 7: a rejected mux was reverted; no PM for it at
		// this throughput.
		verdict = VerdictNoSlack
		if ok {
			verdict = VerdictManaged
			p.commit(mg)
		}
	}
	p.outcomes = append(p.outcomes, muxOutcome{mux: mg.mux, verdict: verdict})
	return nil
}

// commit records mg as power managed.
func (p *pass) commit(mg *muxGating) {
	p.managed = append(p.managed, ManagedMux{
		Mux:        mg.mux,
		Sel:        mg.sel,
		GatedTrue:  mg.trueSet,
		GatedFalse: mg.falseSet,
	})
	for _, id := range mg.trueSet {
		addGuard(p.guards, id, sim.Guard{Sel: mg.sel, WhenTrue: true})
	}
	for _, id := range mg.falseSet {
		addGuard(p.guards, id, sim.Guard{Sel: mg.sel, WhenTrue: false})
	}
}

// runPass executes Fig. 3 steps 2-10 over the muxes of work (a private
// clone) in the given order, committing each mux whose serialization keeps
// the budget feasible. The input graph is mutated (control edges added).
func runPass(work *cdfg.Graph, budget int, gt gating, order []cdfg.NodeID) (passResult, error) {
	p, err := newPass(work, budget, len(order))
	if err != nil {
		return passResult{}, err
	}
	for _, m := range order {
		if err := p.step(gt.of(m)); err != nil {
			return passResult{}, err
		}
	}
	return p.passResult, nil
}

// addGuard appends a guard unless an identical one is already present: two
// muxes sharing one select can gate overlapping cones, and a repeated
// identical guard must not be double counted by the probability analyses.
func addGuard(gs sim.Guards, id cdfg.NodeID, gd sim.Guard) {
	for _, have := range gs[id] {
		if have == gd {
			return
		}
	}
	gs[id] = append(gs[id], gd)
}

// savingsMetric scores a pass outcome: the expected weighted activity saved
// assuming independent, equiprobable selects — an op with k nested guards
// executes with probability 2^-k, saving weight*(1-2^-k).
func savingsMetric(g *cdfg.Graph, guards sim.Guards, weights map[cdfg.Class]float64) float64 {
	total := 0.0
	for id, gl := range guards {
		w := 1.0
		if weights != nil {
			if cw, ok := weights[g.Node(id).Class()]; ok {
				w = cw
			}
		}
		p := 1.0
		for range gl {
			p /= 2
		}
		total += w * (1 - p)
	}
	return total
}

// Schedule runs the full power management scheduling flow on g (paper
// Fig. 3). The input graph is not modified.
func Schedule(g *cdfg.Graph, cfg Config) (*Result, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("core: budget %d must be positive", cfg.Budget)
	}
	ii := cfg.ii()
	if ii < 1 || ii > cfg.Budget {
		return nil, fmt.Errorf("core: initiation interval %d outside [1,%d]", ii, cfg.Budget)
	}
	gt, orders, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	userEdges := append([]cdfg.ControlEdge(nil), g.ControlEdges()...)
	var best passResult
	bestScore := -1.0
	for _, order := range orders {
		work := g.Clone()
		pr, err := runPass(work, cfg.Budget, gt, order)
		if err != nil {
			return nil, err
		}
		score := savingsMetric(work, pr.guards, cfg.Weights)
		if score > bestScore {
			best = pr
			bestScore = score
		}
	}

	var s *sched.Schedule
	var res sched.Resources
	switch {
	case cfg.Resources != nil:
		// Fixed hardware: degrade gating gracefully when the resource
		// constraint makes the fully gated schedule infeasible
		// (paper §II.B's one-subtractor scenario).
		res = cfg.Resources.Clone()
		s, err = scheduleWithRelaxation(&best, cfg.Budget, ii, res, userEdges, cfg.Weights)
	case cfg.ForceDirected:
		if ii != cfg.Budget {
			return nil, fmt.Errorf("core: force-directed backend does not support pipelining")
		}
		s, err = sched.ForceDirected(best.graph, cfg.Budget)
		if err == nil {
			res = s.Usage()
		}
	default:
		s, res, err = sched.Minimize(best.graph, cfg.Budget, ii)
	}
	if err != nil {
		return nil, fmt.Errorf("core: final scheduling failed: %w", err)
	}
	return &Result{
		Graph:     best.graph,
		Schedule:  s,
		Resources: res,
		Managed:   best.managed,
		Guards:    best.guards,
		Order:     cfg.Order,
	}, nil
}

// prepare does the checks and analyses a power management pass needs: the
// graph is valid, the budget is at least the critical path, the gating of
// every mux, and the candidate mux orders.
func prepare(g *cdfg.Graph, cfg Config) (gating, [][]cdfg.NodeID, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	// Budget feasibility before any PM constraint.
	w, err := sched.AnalyzeWindow(g, cfg.Budget)
	if err != nil {
		return nil, nil, err
	}
	if !w.Feasible() {
		return nil, nil, fmt.Errorf("core: budget %d below the critical path", cfg.Budget)
	}
	gt := analyzeGating(g)
	orders, err := candidateOrders(g, cfg, gt)
	if err != nil {
		return nil, nil, err
	}
	return gt, orders, nil
}

// candidateOrders produces the mux processing order(s) for the configured
// strategy. OrderExhaustive returns every permutation when the mux count
// permits, otherwise the greedy order only.
func candidateOrders(g *cdfg.Graph, cfg Config, gt gating) ([][]cdfg.NodeID, error) {
	muxes := g.Muxes()
	if len(muxes) == 0 {
		return [][]cdfg.NodeID{nil}, nil
	}
	height, err := g.HeightToOutput()
	if err != nil {
		return nil, err
	}
	byHeight := func(asc bool) []cdfg.NodeID {
		out := append([]cdfg.NodeID(nil), muxes...)
		slices.SortStableFunc(out, func(a, b cdfg.NodeID) int {
			if ha, hb := height[a], height[b]; ha != hb {
				if asc {
					return cmp.Compare(ha, hb)
				}
				return cmp.Compare(hb, ha)
			}
			return cmp.Compare(a, b)
		})
		return out
	}
	switch cfg.Order {
	case OrderOutputsFirst:
		return [][]cdfg.NodeID{byHeight(true)}, nil
	case OrderInputsFirst:
		return [][]cdfg.NodeID{byHeight(false)}, nil
	case OrderGreedyWeight:
		return [][]cdfg.NodeID{greedyWeightOrder(g, gt, cfg.Weights)}, nil
	case OrderExhaustive:
		if len(muxes) > exhaustiveLimit {
			return [][]cdfg.NodeID{greedyWeightOrder(g, gt, cfg.Weights)}, nil
		}
		return permutations(muxes), nil
	default:
		return nil, fmt.Errorf("core: unknown order strategy %v", cfg.Order)
	}
}

// greedyWeightOrder sorts muxes by decreasing gateable-cone weight, the
// §IV.A pre-processing heuristic. Ties fall back to outputs-first.
func greedyWeightOrder(g *cdfg.Graph, gt gating, weights map[cdfg.Class]float64) []cdfg.NodeID {
	height, err := g.HeightToOutput()
	if err != nil {
		// Callers validated the graph; unreachable in practice.
		height = make([]int, g.NumNodes())
	}
	weightOf := func(set []cdfg.NodeID) float64 {
		total := 0.0
		for _, id := range set {
			w := 1.0
			if weights != nil {
				if cw, ok := weights[g.Node(id).Class()]; ok {
					w = cw
				}
			}
			total += w
		}
		return total
	}
	score := make(map[cdfg.NodeID]float64, len(gt))
	out := make([]cdfg.NodeID, len(gt))
	for i := range gt {
		mg := &gt[i]
		score[mg.mux] = weightOf(mg.trueSet) + weightOf(mg.falseSet)
		out[i] = mg.mux
	}
	slices.SortStableFunc(out, func(a, b cdfg.NodeID) int {
		if score[a] != score[b] {
			return cmp.Compare(score[b], score[a])
		}
		if height[a] != height[b] {
			return cmp.Compare(height[a], height[b])
		}
		return cmp.Compare(a, b)
	})
	return out
}

// permutations returns all orderings of ids.
func permutations(ids []cdfg.NodeID) [][]cdfg.NodeID {
	if len(ids) == 0 {
		return [][]cdfg.NodeID{nil}
	}
	var out [][]cdfg.NodeID
	var rec func(cur []cdfg.NodeID, rest []cdfg.NodeID)
	rec = func(cur []cdfg.NodeID, rest []cdfg.NodeID) {
		if len(rest) == 0 {
			out = append(out, append([]cdfg.NodeID(nil), cur...))
			return
		}
		for i := range rest {
			next := append(cur, rest[i])
			var rem []cdfg.NodeID
			rem = append(rem, rest[:i]...)
			rem = append(rem, rest[i+1:]...)
			rec(next, rem)
		}
	}
	rec(nil, ids)
	return out
}
