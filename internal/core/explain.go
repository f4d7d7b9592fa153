package core

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
)

// MuxVerdict classifies the outcome of the power management attempt on one
// multiplexor.
type MuxVerdict int

const (
	// VerdictManaged: the mux was selected for power management.
	VerdictManaged MuxVerdict = iota
	// VerdictNothingToGate: both data-input cones are empty after the
	// sharing/fanout exclusions — there is nothing to shut down.
	VerdictNothingToGate
	// VerdictNoSlack: serializing control before data violates the
	// throughput constraint (ASAP would exceed ALAP for some node).
	VerdictNoSlack
)

// String names the verdict.
func (v MuxVerdict) String() string {
	switch v {
	case VerdictManaged:
		return "managed"
	case VerdictNothingToGate:
		return "nothing to gate"
	case VerdictNoSlack:
		return "insufficient slack"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// MuxReport explains the outcome for one multiplexor at one budget.
type MuxReport struct {
	// Mux is the multiplexor node.
	Mux cdfg.NodeID
	// Verdict classifies the outcome.
	Verdict MuxVerdict
	// GatedTrue/GatedFalse are the (potential or committed) gated sets.
	GatedTrue, GatedFalse []cdfg.NodeID
	// Detail is a human-readable explanation.
	Detail string
}

// Explain reports the selection loop of the power management pass: for
// every multiplexor, in the first candidate order, whether the pass managed
// it and, if not, why — the diagnostic a designer needs to decide between
// relaxing the throughput constraint and restructuring the behavior (paper
// §IV). It formats the verdicts the pass itself records.
func Explain(g *cdfg.Graph, cfg Config) ([]MuxReport, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("core: budget %d must be positive", cfg.Budget)
	}
	gt, orders, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	pr, err := runPass(g.Clone(), cfg.Budget, gt, orders[0])
	if err != nil {
		return nil, err
	}
	reports := make([]MuxReport, 0, len(pr.outcomes))
	for _, o := range pr.outcomes {
		mg := gt.of(o.mux)
		rep := MuxReport{
			Mux:        o.mux,
			Verdict:    o.verdict,
			GatedTrue:  append([]cdfg.NodeID{}, mg.trueSet...),
			GatedFalse: append([]cdfg.NodeID{}, mg.falseSet...),
		}
		sel := g.Node(mg.sel).Name
		switch o.verdict {
		case VerdictNothingToGate:
			rep.Detail = describeEmptyCones(g, o.mux)
		case VerdictNoSlack:
			rep.Detail = fmt.Sprintf("scheduling %d gated ops after select %q needs more than %d steps",
				rep.gatedCount(), sel, cfg.Budget)
		case VerdictManaged:
			rep.Detail = fmt.Sprintf("select %q computed first; %d ops shut down when unused",
				sel, rep.gatedCount())
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

func (r MuxReport) gatedCount() int { return len(r.GatedTrue) + len(r.GatedFalse) }

// describeEmptyCones explains which exclusion emptied the gated sets.
func describeEmptyCones(g *cdfg.Graph, m cdfg.NodeID) string {
	mux := g.Node(m)
	coneSel := g.FaninBits(mux.Args[cdfg.MuxSel])
	coneT := g.FaninBits(mux.Args[cdfg.MuxTrue])
	coneF := g.FaninBits(mux.Args[cdfg.MuxFalse])
	// count returns the number of operations other than m for which in
	// holds.
	count := func(in func(id cdfg.NodeID) bool) int {
		k := 0
		for _, n := range g.Nodes() {
			if n.ID != m && n.IsOp() && in(n.ID) {
				k++
			}
		}
		return k
	}
	if count(func(id cdfg.NodeID) bool { return coneT.Has(id) || coneF.Has(id) }) == 0 {
		return "both data inputs are primary values or constants"
	}
	var reasons []string
	if k := count(func(id cdfg.NodeID) bool { return coneT.Has(id) && coneF.Has(id) }); k > 0 {
		reasons = append(reasons, fmt.Sprintf("%d ops feed both branches", k))
	}
	if k := count(func(id cdfg.NodeID) bool { return coneSel.Has(id) && (coneT.Has(id) || coneF.Has(id)) }); k > 0 {
		reasons = append(reasons, fmt.Sprintf("%d ops also feed the select", k))
	}
	if len(reasons) == 0 {
		reasons = append(reasons, "every branch op has fanout escaping the cone")
	}
	return strings.Join(reasons, "; ")
}

// FormatReports renders the explanation as text.
func FormatReports(g *cdfg.Graph, reports []MuxReport) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "mux %-8s %-18s %s\n", g.Node(r.Mux).Name, r.Verdict, r.Detail)
	}
	return b.String()
}
