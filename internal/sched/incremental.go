package sched

import (
	"fmt"

	"repro/internal/cdfg"
)

// Incremental keeps the ASAP/ALAP window of a graph exact while control
// edges are added to it, the inner loop of the power management pass
// (paper Fig. 3 steps 4-7): serialize a select driver before the gated
// operations, test the budget, and revert when it no longer holds.
//
// Adding edges from -> to can only raise ASAP in the targets' forward cones
// and only lower ALAP in from's backward cone, so Serialize propagates the
// change through a worklist instead of recomputing the window. Every ASAP
// or ALAP value it overwrites is first pushed on an undo log, so a rejected
// serialization is rolled back in time proportional to what it changed.
type Incremental struct {
	g     *cdfg.Graph
	w     Window
	undo  []undoEntry
	stack []cdfg.NodeID
}

// undoEntry records one overwritten time of the window.
type undoEntry struct {
	id   cdfg.NodeID
	alap bool
	old  int
}

// NewIncremental starts tracking g under budget from a full AnalyzeWindow.
// The window must be feasible: every later Serialize keeps it so.
func NewIncremental(g *cdfg.Graph, budget int) (*Incremental, error) {
	w, err := AnalyzeWindow(g, budget)
	if err != nil {
		return nil, err
	}
	if !w.Feasible() {
		return nil, &InfeasibleError{Budget: budget, Reason: "critical path exceeds budget"}
	}
	return &Incremental{g: g, w: w}, nil
}

// Window returns the current window. The slices are live: they change with
// the next Serialize, so copy them to keep a snapshot.
func (x *Incremental) Window() Window { return x.w }

// Serialize adds a control edge from -> to for every to in tos that is not
// already one, and brings the window up to date. When the window stays
// feasible the edges are kept and it returns true. Otherwise the graph and
// the window are restored and it returns false.
//
// Every target must be an operation (positive latency): a cycle through
// such an edge raises ASAP without bound, so it shows as from's own ASAP
// rising, and Serialize reports it as cdfg.ErrCycle — the error a full
// recompute returns — rather than as infeasibility. On any error the graph
// and the window are restored too.
func (x *Incremental) Serialize(from cdfg.NodeID, tos []cdfg.NodeID) (bool, error) {
	g := x.g
	mark := len(g.ControlEdges())
	x.undo = x.undo[:0]
	for _, to := range tos {
		if g.HasControlEdge(from, to) {
			continue
		}
		if g.Node(to).Latency() == 0 {
			x.revert(mark)
			return false, fmt.Errorf("sched: serialize target %q is not an operation", g.Node(to).Name)
		}
		if err := g.AddControlEdge(from, to); err != nil {
			x.revert(mark)
			return false, err
		}
	}
	added := g.ControlEdges()[mark:]
	if len(added) == 0 {
		return true, nil
	}
	asap, alap := x.w.ASAP, x.w.ALAP
	feasible := true

	// Forward: raise ASAP through the targets' cones. This runs to the
	// end even once infeasible, because only a finished propagation
	// proves the absence of a cycle.
	x.stack = x.stack[:0]
	for _, e := range added {
		if t := asap[from] + g.Node(e.To).Latency(); t > asap[e.To] {
			feasible = x.set(e.To, false, t) && feasible
		}
	}
	for len(x.stack) > 0 {
		v := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		for _, succs := range [2][]cdfg.NodeID{g.Succs(v), g.ControlSuccs(v)} {
			for _, s := range succs {
				t := asap[v] + g.Node(s).Latency()
				if t <= asap[s] {
					continue
				}
				if s == from {
					x.revert(mark)
					return false, cdfg.ErrCycle
				}
				feasible = x.set(s, false, t) && feasible
			}
		}
	}
	if !feasible {
		x.revert(mark)
		return false, nil
	}

	// Backward: lower ALAP through from's cone. The graph is acyclic
	// now, so the first infeasible node settles the answer.
	for _, e := range added {
		if t := alap[e.To] - g.Node(e.To).Latency(); t < alap[from] {
			if !x.set(from, true, t) {
				x.revert(mark)
				return false, nil
			}
		}
	}
	for len(x.stack) > 0 {
		v := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		t := alap[v] - g.Node(v).Latency()
		for _, preds := range [2][]cdfg.NodeID{g.Preds(v), g.ControlPreds(v)} {
			for _, p := range preds {
				if t < alap[p] && !x.set(p, true, t) {
					x.revert(mark)
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// set overwrites one time of the window, logging the old value and queuing
// the node for propagation. It reports whether the node's window is still
// non-empty.
func (x *Incremental) set(id cdfg.NodeID, alap bool, t int) bool {
	times := x.w.ASAP
	if alap {
		times = x.w.ALAP
	}
	x.undo = append(x.undo, undoEntry{id: id, alap: alap, old: times[id]})
	times[id] = t
	x.stack = append(x.stack, id)
	return x.w.ASAP[id] <= x.w.ALAP[id]
}

// revert restores the window from the undo log and drops the control edges
// added after mark.
func (x *Incremental) revert(mark int) {
	for i := len(x.undo) - 1; i >= 0; i-- {
		u := x.undo[i]
		if u.alap {
			x.w.ALAP[u.id] = u.old
		} else {
			x.w.ASAP[u.id] = u.old
		}
	}
	x.undo = x.undo[:0]
	x.stack = x.stack[:0]
	x.g.TruncateControlEdges(mark)
}
