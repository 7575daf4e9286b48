package interconnect

import (
	"fmt"
	"sort"

	"mcudist/internal/hw"
)

// This file provides topology-provided stage routing: the pipeline
// strategy hands activations from stage c to stage c+1, and on sparse
// or degraded wirings — a torus, a netlist with a failed chip — the
// direct edge may not exist. Route finds a deterministic shortest
// multi-hop path over the edges the network does define, and
// PipelineChain lowers the whole handoff chain once per (network,
// chips) pair into an interned, read-only hop list the simulator
// replays allocation-free.

// Route returns a shortest path of chips from `from` to `to` over the
// network's defined edges among chips 0..n-1, inclusive of both
// endpoints. The direct edge, when the network defines it, is always
// preferred — so on uniform and clustered profiles (which wire every
// pair) the route is exactly [from, to] and routed simulations stay
// byte-identical to the direct-handoff path. Otherwise a breadth-first
// search over the wiring finds the fewest-hop path, breaking ties
// toward lower chip indices, so equal wirings always route equal
// paths. An unreachable destination is an error: a severed chain must
// reject the schedule, not silently skip a stage.
func Route(net hw.Network, n, from, to int) ([]int, error) {
	if from == to {
		return nil, fmt.Errorf("interconnect: route %d->%d is a self-edge", from, to)
	}
	if from < 0 || to < 0 || from >= n || to >= n {
		return nil, fmt.Errorf("interconnect: route %d->%d is out of range for %d chips", from, to, n)
	}
	if _, err := net.LinkFor(from, to); err == nil {
		return []int{from, to}, nil
	}
	adj, err := adjacency(net, n)
	if err != nil {
		return nil, err
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[from] = from
	queue := []int{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			break
		}
		for _, next := range adj[cur] {
			if parent[next] < 0 {
				parent[next] = cur
				queue = append(queue, next)
			}
		}
	}
	if parent[to] < 0 {
		return nil, fmt.Errorf("interconnect: no surviving path from chip %d to chip %d in %s", from, to, net)
	}
	var rev []int
	for c := to; c != from; c = parent[c] {
		rev = append(rev, c)
	}
	rev = append(rev, from)
	path := make([]int, len(rev))
	for i, c := range rev {
		path[len(rev)-1-i] = c
	}
	return path, nil
}

// adjacency builds each chip's wired out-neighbours in ascending
// order — the property that makes the BFS tie-break deterministic.
func adjacency(net hw.Network, n int) ([][]int, error) {
	edges, err := hw.NetworkEdges(net, n)
	if err != nil {
		return nil, err
	}
	adj := make([][]int, n)
	for e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, nbrs := range adj {
		sort.Ints(nbrs)
	}
	return adj, nil
}

// PipelineChain is the lowered handoff chain of a pipeline deployment
// over n chips: for each stage boundary c -> c+1, the routed hop
// sequence (usually one direct hop; multi-hop on sparse or degraded
// wirings). Each hop is a whole-payload Hop with its link class
// resolved; its Key indexes Keys. Interned entries are shared and
// read-only.
type PipelineChain struct {
	// Classes lists the distinct link classes the chain's hops cross,
	// in first-use order along the chain.
	Classes []hw.LinkClass
	// Keys holds one price key per class, at Frac 1: key i is class i.
	Keys []PriceKey
	// Sends counts the chain's hops per (sender, key) over every
	// boundary. A pipeline pass hands off across each boundary once,
	// so these are the bytes the whole chain bills per pass.
	Sends []HopCount
	hops  []Hop // all boundaries, flattened in chain order
	off   []int // boundary c spans hops[off[c]:off[c+1]]
}

// Segment returns the routed hops of the stage boundary c -> c+1.
func (pc *PipelineChain) Segment(c int) []Hop {
	return pc.hops[pc.off[c]:pc.off[c+1]]
}

// NewPipelineChain routes every stage boundary of an n-chip pipeline
// over the network's wiring and resolves each hop's link class. A
// boundary with no surviving path fails here, before any simulation
// runs, exactly like a collective schedule hop over an unwired edge.
func NewPipelineChain(net hw.Network, n int) (*PipelineChain, error) {
	if n < 1 {
		return nil, fmt.Errorf("interconnect: a pipeline chain needs at least 1 chip, got %d", n)
	}
	// A single-stage pipeline hands nothing off: zero boundaries.
	pc := &PipelineChain{off: make([]int, 1, n)}
	index := map[hw.LinkClass]int32{}
	for c := 0; c+1 < n; c++ {
		path, err := Route(net, n, c, c+1)
		if err != nil {
			return nil, fmt.Errorf("interconnect: pipeline handoff %d->%d: %w", c, c+1, err)
		}
		for i := 0; i+1 < len(path); i++ {
			cls, err := net.LinkFor(path[i], path[i+1])
			if err != nil {
				return nil, fmt.Errorf("interconnect: pipeline handoff %d->%d via %d->%d: %w", c, c+1, path[i], path[i+1], err)
			}
			id, ok := index[cls]
			if !ok {
				id = int32(len(pc.Classes))
				index[cls] = id
				pc.Classes = append(pc.Classes, cls)
				pc.Keys = append(pc.Keys, PriceKey{Class: int(id), Frac: 1})
			}
			pc.hops = append(pc.hops, Hop{From: path[i], To: path[i+1], Frac: 1, key: id})
		}
		pc.off = append(pc.off, len(pc.hops))
	}
	nk := len(pc.Keys)
	var buf [256]int32
	grid := countGrid(&buf, n*nk)
	for i := range pc.hops {
		grid[pc.hops[i].From*nk+int(pc.hops[i].key)]++
	}
	pc.Sends = appendCounts(nil, grid, nk)
	return pc, nil
}

// chainKey identifies one lowered pipeline chain; like scheduleKey,
// hw.Network is comparable (views ride as content digests).
type chainKey struct {
	net hw.Network
	n   int
}

var chains intern[chainKey, *PipelineChain]

// CachedPipelineChain returns the interned pipeline chain for the
// wiring, routing and class-resolving once per (network, chips) pair —
// the same discipline CachedSchedule applies to collective lowerings.
func CachedPipelineChain(net hw.Network, n int) (*PipelineChain, error) {
	return chains.get(chainKey{net: net, n: n}, func() (*PipelineChain, error) {
		return NewPipelineChain(net, n)
	})
}
