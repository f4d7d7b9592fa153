package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
)

// InfeasibleError reports that no schedule exists under the given budget
// and resources. When Class is valid (HasClass), adding units of that class
// may help; otherwise the budget itself is below the critical path. When
// HasNode is set, Node identifies an operation that missed its deadline —
// callers can relax constraints around it (the power management pass uses
// this to degrade gating gracefully under fixed resources).
type InfeasibleError struct {
	Budget   int
	Class    cdfg.Class
	HasClass bool
	Node     cdfg.NodeID
	HasNode  bool
	Reason   string
}

// Error implements the error interface.
func (e *InfeasibleError) Error() string {
	if e.HasClass {
		return fmt.Sprintf("sched: infeasible in %d steps: %s (%s units exhausted)", e.Budget, e.Reason, e.Class)
	}
	return fmt.Sprintf("sched: infeasible in %d steps: %s", e.Budget, e.Reason)
}

// List performs resource-constrained list scheduling of g into at most
// budget control steps with initiation interval ii (use ii == budget for a
// non-pipelined schedule). Priority is least ALAP first (least slack), ties
// broken by node ID for determinism. res limits the number of operations of
// each class executing in the same modulo-ii slot; classes absent from res
// are unlimited.
func List(g *cdfg.Graph, budget, ii int, res Resources) (*Schedule, error) {
	l, err := newLister(g, budget, ii)
	if err != nil {
		return nil, err
	}
	return l.run(res)
}

// readyOp is an operation whose scheduling predecessors have all settled.
type readyOp struct {
	id    cdfg.NodeID
	ready int // earliest step it may execute
}

// lister holds what list scheduling needs across runs over one graph and
// budget: the ALAP priorities and scratch buffers. Minimize runs it once
// per candidate resource bag.
type lister struct {
	g          *cdfg.Graph
	budget, ii int
	alap       Times
	totalOps   int

	time    Times
	pending []int // unsettled scheduling predecessors
	ready   []readyOp
	spare   []readyOp
	slotUse [][cdfg.NumClasses]int
}

func newLister(g *cdfg.Graph, budget, ii int) (*lister, error) {
	if budget < 1 {
		return nil, &InfeasibleError{Budget: budget, Reason: "budget must be at least 1"}
	}
	if ii < 1 || ii > budget {
		return nil, fmt.Errorf("sched: initiation interval %d outside [1,%d]", ii, budget)
	}
	w, err := AnalyzeWindow(g, budget)
	if err != nil {
		return nil, err
	}
	if !w.Feasible() {
		return nil, &InfeasibleError{Budget: budget, Reason: "critical path exceeds budget"}
	}
	l := &lister{
		g: g, budget: budget, ii: ii, alap: w.ALAP,
		pending: make([]int, g.NumNodes()),
		slotUse: make([][cdfg.NumClasses]int, ii),
	}
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			l.totalOps++
		}
	}
	return l, nil
}

// settle marks a node done at time t and releases its successors. Free
// successors (shifts, outputs) settle recursively.
func (l *lister) settle(id cdfg.NodeID, t int) {
	g := l.g
	l.time[id] = t
	for _, succs := range [2][]cdfg.NodeID{g.Succs(id), g.ControlSuccs(id)} {
		for _, s := range succs {
			l.pending[s]--
			if l.pending[s] != 0 {
				continue
			}
			readyAt := 0
			for _, preds := range [2][]cdfg.NodeID{g.Preds(s), g.ControlPreds(s)} {
				for _, p := range preds {
					if l.time[p] > readyAt {
						readyAt = l.time[p]
					}
				}
			}
			if g.Node(s).Latency() == 0 {
				l.settle(s, readyAt)
			} else {
				l.ready = append(l.ready, readyOp{id: s, ready: readyAt + 1})
			}
		}
	}
}

// run list-schedules the graph under res.
func (l *lister) run(res Resources) (*Schedule, error) {
	g := l.g
	var limit [cdfg.NumClasses]int
	for c := range limit {
		limit[c] = -1
	}
	for c, k := range res {
		limit[c] = k
	}
	l.time = make(Times, g.NumNodes())
	l.ready = l.ready[:0]
	clear(l.slotUse)
	// Seed: nodes with no predecessors. Count them all first — settling
	// a seed cascades and may drive other nodes' pending counts to zero,
	// and those are enqueued by settle itself; seeding them again here
	// would enqueue them twice.
	for _, nd := range g.Nodes() {
		l.pending[nd.ID] = len(nd.Args) + len(g.ControlPreds(nd.ID))
	}
	for _, nd := range g.Nodes() {
		if len(nd.Args)+len(g.ControlPreds(nd.ID)) != 0 {
			continue
		}
		if nd.Latency() == 0 {
			l.settle(nd.ID, 0)
		} else {
			l.ready = append(l.ready, readyOp{id: nd.ID, ready: 1})
		}
	}

	scheduledOps := 0
	for t := 1; t <= l.budget && scheduledOps < l.totalOps; t++ {
		// Deterministic candidate order: least ALAP, then ID.
		slices.SortFunc(l.ready, func(a, b readyOp) int {
			if l.alap[a.id] != l.alap[b.id] {
				return cmp.Compare(l.alap[a.id], l.alap[b.id])
			}
			return cmp.Compare(a.id, b.id)
		})
		use := &l.slotUse[(t-1)%l.ii]
		// Iterate over a snapshot: settle() appends ops that become
		// ready during this step to the fresh ready list, which also
		// collects the candidates left for later steps.
		snapshot := l.ready
		l.ready, l.spare = l.spare[:0], snapshot[:0]
		for _, cand := range snapshot {
			if cand.ready > t {
				l.ready = append(l.ready, cand)
				continue
			}
			cls := g.Node(cand.id).Class()
			if limit[cls] >= 0 && use[cls] >= limit[cls] {
				if l.alap[cand.id] <= t {
					// This op must run now but cannot: the
					// class is the bottleneck.
					return nil, &InfeasibleError{
						Budget:   l.budget,
						Class:    cls,
						HasClass: true,
						Node:     cand.id,
						HasNode:  true,
						Reason:   fmt.Sprintf("op %q missed its deadline at step %d", g.Node(cand.id).Name, t),
					}
				}
				l.ready = append(l.ready, cand)
				continue
			}
			use[cls]++
			scheduledOps++
			l.settle(cand.id, t)
		}
	}

	if scheduledOps != l.totalOps {
		// Report a representative blocked op (smallest ID for
		// determinism) so callers can relax constraints around it.
		e := &InfeasibleError{
			Budget: l.budget,
			Reason: fmt.Sprintf("%d of %d ops unscheduled", l.totalOps-scheduledOps, l.totalOps),
		}
		for _, cand := range l.ready {
			if !e.HasNode || cand.id < e.Node {
				e.Node = cand.id
				e.HasNode = true
				e.Class = g.Node(cand.id).Class()
				e.HasClass = true
			}
		}
		return nil, e
	}
	return &Schedule{Graph: g, Steps: l.budget, II: l.ii, Time: l.time}, nil
}

// lowerBound returns the per-class minimum feasible unit counts for the
// given initiation interval: ceil(#ops(class) / ii).
func lowerBound(g *cdfg.Graph, ii int) Resources {
	counts := make(map[cdfg.Class]int)
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			counts[nd.Class()]++
		}
	}
	res := make(Resources, len(counts))
	for c, k := range counts {
		res[c] = (k + ii - 1) / ii
	}
	return res
}

// Minimize finds a schedule of g in at most budget steps (initiation
// interval ii) using as few execution units as the list scheduler can
// manage, mimicking HYPER's minimum-hardware goal for a fixed throughput.
// It starts from the per-class lower bound and adds one unit of the
// blocking class until scheduling succeeds.
func Minimize(g *cdfg.Graph, budget, ii int) (*Schedule, Resources, error) {
	res := lowerBound(g, ii)
	maxUnits := 0
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			maxUnits++
		}
	}
	l, err := newLister(g, budget, ii)
	if err != nil {
		return nil, nil, err
	}
	for iter := 0; iter <= maxUnits+1; iter++ {
		s, err := l.run(res)
		if err == nil {
			return s, res, nil
		}
		ie, ok := err.(*InfeasibleError)
		if !ok {
			return nil, nil, err
		}
		if !ie.HasClass {
			return nil, nil, err
		}
		res[ie.Class]++
	}
	return nil, nil, fmt.Errorf("sched: minimize failed to converge for %q", g.Name)
}

// MinimizeSimple is Minimize with ii == budget (non-pipelined).
func MinimizeSimple(g *cdfg.Graph, budget int) (*Schedule, Resources, error) {
	return Minimize(g, budget, budget)
}
