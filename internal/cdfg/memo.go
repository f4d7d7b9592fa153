package cdfg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// analysisMemo caches the pure-dataflow analyses of a graph: transitive
// fanin cones, ASAP depth, height to output, and the critical path derived
// from depth. These depend only on the node list and the dataflow edges
// (Args), both of which are append-only, so they are invalidated only
// when a node is added. Control edges never affect them.
//
// It additionally caches two schedule-dependent results — the topological
// order over data + control edges and the graph content hash — which are
// invalidated when either the node list or the control edges change.
//
// The cache is safe for concurrent use: the design-space sweep engine
// evaluates many configurations of one design in parallel, and every
// worker's clones share the entries that were warm at clone time.
type analysisMemo struct {
	mu       sync.Mutex
	fanin    map[NodeID]Bits
	depth    []int
	height   []int
	critOK   bool
	critical int
	// topo is the memoized TopoOrder result (successful orders only; a
	// cyclic graph is an error path and recomputes).
	topo []NodeID
	// hash is the memoized ContentHash result ("" = not computed).
	hash string
}

// invalidateAnalyses drops every cached analysis. Called when the node list
// changes (the only mutation the pure-dataflow analyses depend on; it also
// invalidates the schedule-dependent entries).
func (g *Graph) invalidateAnalyses() {
	g.memo.mu.Lock()
	g.memo.fanin = nil
	g.memo.depth = nil
	g.memo.height = nil
	g.memo.critOK = false
	g.memo.topo = nil
	g.memo.hash = ""
	g.memo.mu.Unlock()
}

// invalidateSchedDeps drops only the schedule-dependent cache entries
// (topological order, content hash). Called when control edges change:
// the pure-dataflow analyses are unaffected and stay warm.
func (g *Graph) invalidateSchedDeps() {
	g.memo.mu.Lock()
	g.memo.topo = nil
	g.memo.hash = ""
	g.memo.mu.Unlock()
}

// shareAnalyses copies the warm cache entries of g into ng (a fresh clone
// with an identical node list). The maps are fresh so later fills do not
// race across graphs; the cached sets and slices themselves are immutable
// once computed and safely shared.
func (g *Graph) shareAnalyses(ng *Graph) {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if g.memo.fanin != nil {
		ng.memo.fanin = make(map[NodeID]Bits, len(g.memo.fanin))
		for id, s := range g.memo.fanin {
			ng.memo.fanin[id] = s
		}
	}
	ng.memo.depth = g.memo.depth
	ng.memo.height = g.memo.height
	ng.memo.critOK = g.memo.critOK
	ng.memo.critical = g.memo.critical
	// A clone starts with an identical node list and identical control
	// edges, so the schedule-dependent entries are valid for it too.
	ng.memo.topo = g.memo.topo
	ng.memo.hash = g.memo.hash
}

// PrewarmAnalyses computes and caches the analyses the synthesis flow
// queries repeatedly: depth, height to output, the critical path, and the
// fanin cone of every multiplexor argument. A sweep calls this once on the
// shared design so every per-configuration clone starts warm.
func (g *Graph) PrewarmAnalyses() {
	_, _ = g.Depth()
	_, _ = g.HeightToOutput()
	_, _ = g.TopoOrder()
	for _, m := range g.Muxes() {
		for _, a := range g.Node(m).Args {
			g.FaninBits(a)
		}
	}
}

// faninMemo returns the cached fanin cone for root, computing it on a miss.
// Arguments have smaller IDs than their consumers, so one pass in
// descending ID order from root closes the cone.
func (g *Graph) faninMemo(root NodeID) Bits {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if s, ok := g.memo.fanin[root]; ok {
		return s
	}
	cone := NewBits(len(g.nodes))
	cone.Add(root)
	for id := root; id >= 0; id-- {
		if cone.Has(id) {
			for _, a := range g.nodes[id].Args {
				cone.Add(a)
			}
		}
	}
	if g.memo.fanin == nil {
		g.memo.fanin = make(map[NodeID]Bits)
	}
	g.memo.fanin[root] = cone
	return cone
}

// depthMemo returns the cached ASAP depth slice, computing it on a miss.
// Node IDs are a dataflow topological order by construction (add rejects
// forward argument references), so a single pass in ID order suffices.
func (g *Graph) depthMemo() []int {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if g.memo.depth != nil {
		return g.memo.depth
	}
	depth := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		earliest := 0
		for _, a := range n.Args {
			if depth[a] > earliest {
				earliest = depth[a]
			}
		}
		depth[n.ID] = earliest + n.Latency()
	}
	g.memo.depth = depth
	return depth
}

// heightMemo returns the cached height-to-output slice, computing it on a
// miss. Reverse ID order is a reverse dataflow topological order.
func (g *Graph) heightMemo() []int {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if g.memo.height != nil {
		return g.memo.height
	}
	height := make([]int, len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		below := 0
		for _, s := range g.succs[n.ID] {
			if height[s] > below {
				below = height[s]
			}
		}
		height[n.ID] = below + n.Latency()
	}
	g.memo.height = height
	return height
}

// topoMemo returns the cached topological order, computing it on a miss.
// Only successful orders are cached: a cyclic graph keeps returning its
// error without polluting the memo.
func (g *Graph) topoMemo() ([]NodeID, error) {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if g.memo.topo != nil {
		return g.memo.topo, nil
	}
	order, err := g.computeTopoOrder()
	if err != nil {
		return nil, err
	}
	g.memo.topo = order
	return order, nil
}

// ContentHash returns a hex SHA-256 over everything that determines the
// graph's synthesis semantics: the design name, every node's kind, name,
// arguments, constant value and shift amount, and the control edges. Two
// graphs with equal hashes run every pass to identical artifacts. The hash
// is memoized alongside the other analyses and shared across clones, so
// sweep workers pay for it once per design.
func (g *Graph) ContentHash() string {
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if g.memo.hash != "" {
		return g.memo.hash
	}
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	num := func(v int64) {
		h.Write(buf[:binary.PutVarint(buf[:], v)])
	}
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	str(g.Name)
	num(int64(len(g.nodes)))
	for _, n := range g.nodes {
		num(int64(n.Kind))
		str(n.Name)
		num(int64(len(n.Args)))
		for _, a := range n.Args {
			num(int64(a))
		}
		num(n.Value)
		num(int64(n.Shift))
	}
	num(int64(len(g.controlEdges)))
	for _, e := range g.controlEdges {
		num(int64(e.From))
		num(int64(e.To))
	}
	g.memo.hash = hex.EncodeToString(h.Sum(nil))
	return g.memo.hash
}

// criticalMemo returns the cached critical path, deriving it from the depth
// cache on a miss.
func (g *Graph) criticalMemo() int {
	depth := g.depthMemo()
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	if g.memo.critOK {
		return g.memo.critical
	}
	max := 0
	for _, d := range depth {
		if d > max {
			max = d
		}
	}
	g.memo.critical = max
	g.memo.critOK = true
	return max
}
