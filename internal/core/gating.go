package core

import "repro/internal/cdfg"

// BranchCandidate is one mux branch with a non-empty maximal gateable set:
// the unit of shut-down the paper's pass (and any exact baseline) decides
// over. The set is the paper Fig. 3 step 3 cone after the §III fanout
// exclusions, successor-closed through transparent wires.
type BranchCandidate struct {
	// Mux is the multiplexor whose branch this is.
	Mux cdfg.NodeID
	// Sel is the mux's select driver (the guard source).
	Sel cdfg.NodeID
	// WhenTrue is true for the select=1 branch, false for the select=0
	// branch.
	WhenTrue bool
	// Members are the gateable operations in ascending node-ID order.
	Members []cdfg.NodeID
}

// BranchCandidates enumerates every non-empty gateable branch of g in a
// deterministic order: mux ID ascending, true branch before false. The sets
// depend only on dataflow edges, so the result is identical across clones
// of one behavior regardless of inserted control edges.
func BranchCandidates(g *cdfg.Graph) []BranchCandidate {
	var out []BranchCandidate
	for _, mg := range analyzeGating(g) {
		if len(mg.trueSet) > 0 {
			out = append(out, BranchCandidate{Mux: mg.mux, Sel: mg.sel, WhenTrue: true, Members: mg.trueSet})
		}
		if len(mg.falseSet) > 0 {
			out = append(out, BranchCandidate{Mux: mg.mux, Sel: mg.sel, WhenTrue: false, Members: mg.falseSet})
		}
	}
	return out
}

// GatedTops returns the members of set with no gated predecessor (looking
// through transparent wires), in ascending ID order: the nodes that receive
// serializing control edges from the select driver.
func GatedTops(g *cdfg.Graph, set cdfg.NodeSet) []cdfg.NodeID {
	return appendTops(g, nil, set.Sorted(), cdfg.NewBits(g.NumNodes()))
}
