package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cdfg"
)

// sameWindow reports whether two windows hold identical times.
func sameWindow(a, b Window) bool {
	return slices.Equal(a.ASAP, b.ASAP) && slices.Equal(a.ALAP, b.ALAP)
}

func snapshot(w Window) Window { return Window{ASAP: w.ASAP.Clone(), ALAP: w.ALAP.Clone()} }

// TestIncrementalMatchesRecompute serializes random sources before random
// operations of random DAGs and checks, after every accepted, rejected or
// cyclic attempt, that the incremental window equals a full AnalyzeWindow
// and that a rejected attempt leaves the graph's edges as they were.
func TestIncrementalMatchesRecompute(t *testing.T) {
	var accepted, rejected, cycles int
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 4+r.Intn(30))
		mb, err := MinBudget(g)
		if err != nil {
			t.Fatal(err)
		}
		budget := mb + r.Intn(4)
		x, err := NewIncremental(g, budget)
		if err != nil {
			t.Fatal(err)
		}
		var ops []cdfg.NodeID
		for _, nd := range g.Nodes() {
			if nd.IsOp() {
				ops = append(ops, nd.ID)
			}
		}
		for step := 0; step < 40; step++ {
			from := cdfg.NodeID(r.Intn(g.NumNodes()))
			var tos []cdfg.NodeID
			for k := 1 + r.Intn(3); k > 0; k-- {
				if to := ops[r.Intn(len(ops))]; to != from {
					tos = append(tos, to)
				}
			}
			// The full recompute's verdict on the same edges.
			tried := g.Clone()
			for _, to := range tos {
				if !tried.HasControlEdge(from, to) {
					if err := tried.AddControlEdge(from, to); err != nil {
						t.Fatal(err)
					}
				}
			}
			triedW, cycle := AnalyzeWindow(tried, budget)
			before := snapshot(x.Window())
			edges := len(g.ControlEdges())
			ok, err := x.Serialize(from, tos)
			if !errors.Is(err, cycle) || (cycle == nil && ok != triedW.Feasible()) {
				t.Fatalf("seed %d step %d: Serialize = %v, %v; recompute feasible %v, err %v",
					seed, step, ok, err, triedW.Feasible(), cycle)
			}
			switch {
			case err != nil:
				cycles++
			case ok:
				accepted++
			default:
				rejected++
			}
			if err != nil || !ok {
				if len(g.ControlEdges()) != edges || !sameWindow(x.Window(), before) {
					t.Fatalf("seed %d step %d: rejected serialization not reverted", seed, step)
				}
			}
			if _, cycErr := g.TopoOrder(); cycErr != nil {
				t.Fatalf("seed %d step %d: graph left cyclic", seed, step)
			}
			want, err := AnalyzeWindow(g, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !sameWindow(x.Window(), want) {
				t.Fatalf("seed %d step %d: incremental %v/%v, recompute %v/%v",
					seed, step, x.Window().ASAP, x.Window().ALAP, want.ASAP, want.ALAP)
			}
		}
	}
	if accepted == 0 || rejected == 0 || cycles == 0 {
		t.Fatalf("accepted %d, rejected %d, cyclic %d: every outcome must be exercised", accepted, rejected, cycles)
	}
}

// TestIncrementalCycleIsError: an edge closing a control cycle reports the
// recompute's cycle error, not infeasibility, and is rolled back.
func TestIncrementalCycleIsError(t *testing.T) {
	g := absDiff(t)
	sel, d1 := g.Lookup("g"), g.Lookup("d1")
	if err := g.AddControlEdge(d1, sel); err != nil {
		t.Fatal(err)
	}
	x, err := NewIncremental(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(x.Window())
	ok, err := x.Serialize(sel, []cdfg.NodeID{g.Lookup("d2"), d1})
	if ok || !errors.Is(err, cdfg.ErrCycle) || err.Error() != "cdfg: graph contains a cycle" {
		t.Fatalf("Serialize = %v, %v; want the cycle error", ok, err)
	}
	if len(g.ControlEdges()) != 1 || !sameWindow(x.Window(), before) {
		t.Fatal("cyclic serialization not reverted")
	}
	// A full recompute of the same edge fails the same way.
	if err := g.AddControlEdge(sel, d1); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeWindow(g, 5); !errors.Is(err, cdfg.ErrCycle) {
		t.Fatalf("AnalyzeWindow = %v, want the cycle error", err)
	}
}

func TestIncrementalRejectsFreeTarget(t *testing.T) {
	g := absDiff(t)
	x, err := NewIncremental(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Serialize(g.Lookup("g"), []cdfg.NodeID{g.Lookup("d1"), g.Lookup("out")}); err == nil {
		t.Fatal("serializing before an output accepted")
	}
	if len(g.ControlEdges()) != 0 {
		t.Fatal("rejected serialization left edges behind")
	}
	if _, err := NewIncremental(g, 1); err == nil {
		t.Fatal("window below the critical path accepted")
	}
}

// TestTimingAllocations pins the allocation profile of the timing kernel:
// ASAP and ALAP allocate only their result once the topological order is
// memoized, and a serialization the warm incremental window rejects — the
// common case of the power management loop — allocates nothing.
func TestTimingAllocations(t *testing.T) {
	g := absDiff(t)
	if err := g.AddControlEdge(g.Lookup("g"), g.Lookup("d2")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = ASAP(g) }); n != 1 {
		t.Errorf("ASAP allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = ALAP(g, 4) }); n != 1 {
		t.Errorf("ALAP allocates %v times, want 1", n)
	}

	g = absDiff(t)
	x, err := NewIncremental(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel, tops := g.Lookup("g"), []cdfg.NodeID{g.Lookup("d1"), g.Lookup("d2")}
	serialize := func() {
		if ok, err := x.Serialize(sel, tops); ok || err != nil {
			t.Fatalf("Serialize = %v, %v; want a rejection", ok, err)
		}
	}
	serialize() // warm the edge lists and the undo log
	if n := testing.AllocsPerRun(100, serialize); n != 0 {
		t.Errorf("rejected Serialize allocates %v times per call, want 0", n)
	}
}
