package sched

import (
	"fmt"
	"math"

	"repro/internal/cdfg"
)

// ForceDirected implements force-directed scheduling (Paulin & Knight),
// the algorithm family HYPER's resource-minimizing scheduler descends
// from. For a fixed latency budget it balances the expected concurrency of
// each operation class across control steps, which minimizes the peak
// number of execution units without explicit resource constraints.
//
// The implementation is the classic iterative scheme: compute time frames
// (ASAP/ALAP under the decisions made so far), build per-class
// distribution graphs, evaluate self force plus first-order
// predecessor/successor forces for every (operation, step) candidate, and
// commit the minimum-force assignment until every operation is fixed.
func ForceDirected(g *cdfg.Graph, budget int) (*Schedule, error) {
	if budget < 1 {
		return nil, &InfeasibleError{Budget: budget, Reason: "budget must be at least 1"}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	lower := make([]int, n) // availability-time lower bounds
	upper := make([]int, n)
	for i := range upper {
		upper[i] = budget
	}

	// frames computes availability windows under the current bounds.
	frames := func() (asap, alap Times, err error) {
		asap = make(Times, n)
		for _, id := range order {
			nd := g.Node(id)
			ready := 0
			for _, preds := range [2][]cdfg.NodeID{nd.Args, g.ControlPreds(id)} {
				for _, p := range preds {
					if asap[p] > ready {
						ready = asap[p]
					}
				}
			}
			t := ready + nd.Latency()
			if t < lower[id] {
				t = lower[id]
			}
			asap[id] = t
		}
		alap = make(Times, n)
		for i := range alap {
			alap[i] = budget
		}
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			limit := budget
			for _, succs := range [2][]cdfg.NodeID{g.Succs(id), g.ControlSuccs(id)} {
				for _, s := range succs {
					if cand := alap[s] - g.Node(s).Latency(); cand < limit {
						limit = cand
					}
				}
			}
			if limit > upper[id] {
				limit = upper[id]
			}
			alap[id] = limit
		}
		for _, id := range order {
			if asap[id] > alap[id] {
				return nil, nil, &InfeasibleError{
					Budget: budget,
					Reason: fmt.Sprintf("op %q has empty time frame", g.Node(id).Name),
				}
			}
		}
		return asap, alap, nil
	}

	var ops []cdfg.NodeID
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			ops = append(ops, nd.ID)
		}
	}
	fixed := make(map[cdfg.NodeID]bool, len(ops))

	for len(fixed) < len(ops) {
		asap, alap, err := frames()
		if err != nil {
			return nil, err
		}
		// Distribution graphs: expected ops per class per step.
		dg := make(map[cdfg.Class][]float64)
		for _, id := range ops {
			cls := g.Node(id).Class()
			if dg[cls] == nil {
				dg[cls] = make([]float64, budget+1)
			}
			width := alap[id] - asap[id] + 1
			p := 1.0 / float64(width)
			for t := asap[id]; t <= alap[id]; t++ {
				dg[cls][t] += p
			}
		}
		meanDG := func(cls cdfg.Class, lo, hi int) float64 {
			if lo > hi {
				return 0
			}
			sum := 0.0
			for t := lo; t <= hi; t++ {
				sum += dg[cls][t]
			}
			return sum / float64(hi-lo+1)
		}

		bestOp := cdfg.InvalidNode
		bestStep := 0
		bestForce := math.Inf(1)
		for _, id := range ops {
			if fixed[id] {
				continue
			}
			cls := g.Node(id).Class()
			base := meanDG(cls, asap[id], alap[id])
			for t := asap[id]; t <= alap[id]; t++ {
				force := dg[cls][t] - base
				// First-order neighbor forces: committing id
				// to t clips direct successors' frames to
				// [t+1, ...] and predecessors' to [..., t-1].
				for _, succs := range [2][]cdfg.NodeID{g.Succs(id), g.ControlSuccs(id)} {
					for _, s := range succs {
						sn := g.Node(s)
						if !sn.IsOp() || fixed[s] {
							continue
						}
						lo := asap[s]
						if t+1 > lo {
							lo = t + 1
						}
						force += meanDG(sn.Class(), lo, alap[s]) -
							meanDG(sn.Class(), asap[s], alap[s])
					}
				}
				for _, preds := range [2][]cdfg.NodeID{g.Preds(id), g.ControlPreds(id)} {
					for _, p := range preds {
						pn := g.Node(p)
						if !pn.IsOp() || fixed[p] {
							continue
						}
						hi := alap[p]
						if t-1 < hi {
							hi = t - 1
						}
						force += meanDG(pn.Class(), asap[p], hi) -
							meanDG(pn.Class(), asap[p], alap[p])
					}
				}
				if force < bestForce-1e-12 ||
					(math.Abs(force-bestForce) <= 1e-12 && (id < bestOp || (id == bestOp && t < bestStep))) {
					bestForce = force
					bestOp = id
					bestStep = t
				}
			}
		}
		if bestOp == cdfg.InvalidNode {
			return nil, fmt.Errorf("sched: force-directed selection failed")
		}
		lower[bestOp] = bestStep
		upper[bestOp] = bestStep
		fixed[bestOp] = true
	}

	asap, _, err := frames()
	if err != nil {
		return nil, err
	}
	s := &Schedule{Graph: g, Steps: budget, II: budget, Time: asap}
	if err := s.Validate(nil); err != nil {
		return nil, fmt.Errorf("sched: force-directed produced invalid schedule: %w", err)
	}
	return s, nil
}
