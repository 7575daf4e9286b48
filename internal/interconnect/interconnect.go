// Package interconnect models the chip-to-chip network: point-to-point
// MIPI links whose shape is a pluggable Topology. The paper's
// hierarchical reduction tree in groups of four (Fig. 1) is the
// default; a flat all-to-one star, a ring all-reduce, and a
// fully-connected all-to-all are available as design-space
// alternatives. Each topology lowers to a Schedule — a link graph plus
// dependency-ordered reduce/broadcast hop lists — which is the only
// interface the performance simulator consumes. The package also
// provides per-hop transfer-time/byte accounting helpers.
package interconnect

import (
	"fmt"

	"mcudist/internal/hw"
)

// Tree is the reduction/broadcast tree over chips 0..N-1. Chip IDs at
// the leaves are the compute chips themselves; interior "leaders" are
// regular chips that additionally accumulate partial results (the
// paper reduces onto one chip of each group of four).
type Tree struct {
	N    int
	Root int
	// Parent[i] is the chip that i sends its partial result to
	// during the reduce (-1 for the root).
	Parent []int
	// Children[i] lists the chips that send to i, in reduce order.
	Children [][]int
}

// BuildTree constructs the hierarchical grouping: at each level,
// consecutive nodes form groups of at most groupSize whose first
// member becomes the leader at the next level, until one root remains.
// groupSize >= n degenerates to a flat all-to-one reduction; prefer
// selecting hw.TopoStar, which names that shape explicitly.
//
// This is the single validation point for tree parameters: every
// schedule builder and hw.Params.Validate funnel group-size errors
// here or mirror its rule.
func BuildTree(n, groupSize int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("interconnect: need at least one chip, got %d", n)
	}
	if groupSize < 2 {
		return nil, fmt.Errorf("interconnect: group size %d must be at least 2 (select hw.TopoStar for a flat all-to-one reduction)", groupSize)
	}
	t := &Tree{
		N:        n,
		Root:     0,
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	level := make([]int, n)
	for i := range level {
		level[i] = i
	}
	for len(level) > 1 {
		var next []int
		for g := 0; g < len(level); g += groupSize {
			end := g + groupSize
			if end > len(level) {
				end = len(level)
			}
			leader := level[g]
			for _, member := range level[g+1 : end] {
				t.Parent[member] = leader
				t.Children[leader] = append(t.Children[leader], member)
			}
			next = append(next, leader)
		}
		level = next
	}
	t.Root = level[0]
	return t, nil
}

// Depth returns the longest leaf-to-root path length in hops.
func (t *Tree) Depth() int {
	depth := 0
	for i := 0; i < t.N; i++ {
		d := 0
		for p := t.Parent[i]; p != -1; p = t.Parent[p] {
			d++
		}
		if d > depth {
			depth = d
		}
	}
	return depth
}

// Subtree returns the chips in the subtree rooted at node (including
// node itself), in reduce-dependency order (children before parents).
func (t *Tree) Subtree(node int) []int {
	var out []int
	var walk func(int)
	walk = func(n int) {
		for _, c := range t.Children[n] {
			walk(c)
		}
		out = append(out, n)
	}
	walk(node)
	return out
}

// Hop is one directed link transfer in a collective schedule.
type Hop struct {
	From, To int
	// Chunk indexes the payload chunk this hop carries (always 0 for
	// whole-payload topologies; the ring moves N distinct chunks).
	// The simulator tracks readiness per (chip, chunk).
	Chunk int
	// Frac scales the collective payload carried by this hop: 1 for
	// whole-payload hops, 1/N for ring chunks.
	Frac float64
	// FromAccumulated marks reduce hops whose sender transmits its
	// accumulated value (so the transfer waits for the sender's own
	// accumulations of this chunk). Fully-connected exchange sends
	// the original partial instead and accumulates only at the
	// receiver.
	FromAccumulated bool
	// key indexes the hop's price key in the owning Schedule's (or
	// PipelineChain's) Keys: the link class of the edge it crosses,
	// resolved from the platform's network description at lowering
	// time, and its Frac. It sits in FromAccumulated's padding, so a
	// Hop is 40 bytes. An index with no key, or a key with no defined
	// class, behind it — every hop of a bare schedule, which resolves
	// none — marks an undefined edge; Validate rejects it.
	key int32
}

// Key is the index of the hop's price key in its schedule's Keys,
// resolved at lowering, so a simulator prices a tile once per key and
// each hop reads its price by index. It is 0 on a bare schedule, which
// resolves no keys.
func (h *Hop) Key() int { return int(h.key) }

// PriceKey is what one hop's transfer costs besides the tile it moves:
// the link class of the edge it crosses, an index into its schedule's
// (or chain's) Classes, and the share Frac of the tile it carries.
// Annotate lists each distinct pair of a schedule once, whatever mix of
// classes and fractions its hops carry.
type PriceKey struct {
	Class int
	Frac  float64
}

// HopCount is how many hops of one list one chip sends, or receives, at
// one price key. A byte counter is a sum of integers, exact in any
// order, so a simulator bills a tile's bytes as Hops times the key's
// price instead of hop by hop.
type HopCount struct {
	Chip, Key, Hops int32
}

// countGrid returns size zeroed cells of hop-count scratch: in buf when
// they fit, so lowering and validating a schedule of up to 85 (chip,
// key) pairs, a 64-chip one-class schedule among them, allocates none.
func countGrid(buf *[256]int32, size int) []int32 {
	if size <= len(buf) {
		return buf[:size]
	}
	return make([]int32, size)
}

// appendCounts appends the nonzero cells of grid, an n×nk matrix of
// hop counts per (chip, key), in (chip, key) order.
func appendCounts(out []HopCount, grid []int32, nk int) []HopCount {
	for i, cnt := range grid {
		if cnt > 0 {
			out = append(out, HopCount{Chip: int32(i / nk), Key: int32(i % nk), Hops: cnt})
		}
	}
	return out
}

// countsMatch reports whether counts lists exactly the nonzero cells of
// grid, as appendCounts would.
func countsMatch(counts []HopCount, grid []int32, nk int) bool {
	j := 0
	for i, cnt := range grid {
		if cnt == 0 {
			continue
		}
		if j == len(counts) || counts[j] != (HopCount{Chip: int32(i / nk), Key: int32(i % nk), Hops: cnt}) {
			return false
		}
		j++
	}
	return j == len(counts)
}

// ReduceHops returns the hops of the all-reduce in a valid dependency
// order: every chip's hop to its parent appears after the hops of its
// own children.
func (t *Tree) ReduceHops() []Hop {
	var hops []Hop
	for _, node := range t.Subtree(t.Root) {
		if p := t.Parent[node]; p != -1 {
			hops = append(hops, Hop{From: node, To: p, Frac: 1, FromAccumulated: true})
		}
	}
	return hops
}

// BroadcastHops returns the hops of the root-to-all broadcast in
// dependency order (parents before children).
func (t *Tree) BroadcastHops() []Hop {
	var hops []Hop
	var walk func(int)
	walk = func(n int) {
		for _, c := range t.Children[n] {
			hops = append(hops, Hop{From: n, To: c, Frac: 1})
			walk(c)
		}
	}
	walk(t.Root)
	return hops
}

// TransferCycles is the time one hop of the given payload occupies a
// link of the platform's local/uniform class, in cluster cycles:
// payload / bandwidth + per-transfer setup. The event simulator
// resolves each hop's own class (heterogeneous networks differ per
// edge); this closed-form helper assumes the uniform class and backs
// the analytical estimates.
func TransferCycles(p hw.Params, payloadBytes int64) float64 {
	return p.Network.Local.TransferCycles(p.Chip.FreqHz, payloadBytes)
}

// RingAllReduceCycles estimates a ring all-reduce + all-gather over n
// chips: 2(n-1) steps, each moving payload/n per link with all links
// active in parallel — the bandwidth-optimal collective large payloads
// favor, at the price of 2(n-1) setup latencies. The paper's
// hierarchical tree wins for small payloads (fewer serialized setups);
// this closed form locates the crossover.
func RingAllReduceCycles(n int, p hw.Params, payload int64) float64 {
	if n <= 1 || payload <= 0 {
		return 0
	}
	chunk := (payload + int64(n) - 1) / int64(n)
	steps := float64(2 * (n - 1))
	return steps * TransferCycles(p, chunk)
}

// CriticalPathCycles estimates the contention-aware latency of a
// reduce (+ optional broadcast) without running the event simulator:
// receives at one parent serialize, subtrees proceed in parallel.
// The performance simulator computes the same quantity event by event;
// this closed form backs sanity tests and quick estimates.
func CriticalPathCycles(t *Tree, p hw.Params, reducePayload, bcastPayload int64) float64 {
	up := TransferCycles(p, reducePayload)
	down := TransferCycles(p, bcastPayload)
	var reduceDone func(int) float64
	reduceDone = func(node int) float64 {
		var at float64
		for _, c := range t.Children[node] {
			// Receives serialize on the parent's port: each child's
			// transfer starts when both the child subtree is done and
			// the port is free.
			start := reduceDone(c)
			if start < at {
				start = at
			}
			at = start + up
		}
		return at
	}
	var bcastDepth func(int) int
	bcastDepth = func(node int) int {
		d := 0
		for i, c := range t.Children[node] {
			// Sends serialize on the parent's TX port (i+1 sends),
			// then the child forwards.
			cd := i + 1 + bcastDepth(c)
			if cd > d {
				d = cd
			}
		}
		return d
	}
	return reduceDone(t.Root) + float64(bcastDepth(t.Root))*down
}
