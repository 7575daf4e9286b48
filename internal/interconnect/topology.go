package interconnect

import (
	"fmt"
	"math"

	"mcudist/internal/hw"
)

// Final marks a chip that holds a fully reduced chunk and runs the
// synchronization's root work (residual/norm/requant) on it before the
// broadcast phase. The tree and star finalize everything on the root;
// the ring shards the work across all chips (1/N each); the
// fully-connected exchange replicates it on every chip.
type Final struct {
	Chip  int
	Chunk int
	// Frac is the share of the root work this chip executes.
	Frac float64
}

// Schedule is the lowered collective plan of one topology over N
// chips: dependency-ordered reduce and broadcast hop lists plus the
// root-work placement. The performance simulator executes a Schedule
// generically — every (From, To) pair is an independent full-duplex
// link resource — so adding a topology means adding a builder here,
// not touching the simulator.
type Schedule struct {
	Topology hw.Topology
	N        int
	// Root is the representative chip for runtime-breakdown
	// accounting (the reduction root for tree and star, chip 0 for
	// the symmetric topologies).
	Root int
	// Chunks is the number of payload chunks readiness is tracked
	// over (1 for whole-payload topologies, N for the ring).
	Chunks int
	// Depth is the number of serialized hop levels on the reduce
	// critical path: the tree's depth, 1 for star and fully-connected,
	// N-1 for the ring's reduce-scatter.
	Depth int
	// Reduce and Broadcast are the hop lists in dependency order.
	// NewSchedule resolves each hop's link class from the platform's
	// network description at lowering time.
	Reduce    []Hop
	Broadcast []Hop
	// Classes lists the distinct link classes the schedule's hops
	// resolved to, in first-use order — the per-class axis the
	// simulator splits its chip-to-chip accounting over. A uniform
	// network always yields exactly one class.
	Classes []hw.LinkClass
	// Keys lists the distinct (class, Frac) pairs the hops carry, in
	// first-use order; a hop's Key indexes it. The four lowered shapes
	// carry one Frac per schedule, so they have a key per class.
	Keys []PriceKey
	// ReduceSends and BroadcastSends count each list's hops per
	// (sender, key), and ReduceAdds the reduce hops per (receiver, key),
	// each one accumulation on the receiver: what a tile of the list
	// bills in bytes. Annotate records them; Validate rejects counts the
	// lists no longer match.
	ReduceSends, ReduceAdds, BroadcastSends []HopCount
	// Final lists the chips running the root work, with their shares.
	Final []Final
}

// NewSchedule lowers the platform's topology selection onto n chips
// and resolves every hop's link class under the platform's network
// description (p.GroupSize is consulted only by the tree-lowered
// shapes). A topology that routes over an edge the network does not
// define — an unwired pair of a per-edge table — is rejected here,
// before any simulation runs.
func NewSchedule(p hw.Params, n int) (*Schedule, error) {
	s, err := NewBareSchedule(p.Topology, n, p.GroupSize)
	if err != nil {
		return nil, err
	}
	if err := s.Annotate(p.Network); err != nil {
		return nil, err
	}
	return s, nil
}

// NewBareSchedule builds the hop structure of a topology without
// link-class annotation. It exists for consumers that never execute
// the collective hops — the pipeline strategy only reports the
// schedule's shape while transferring on its own handoff chain — so a
// network that wires just the chain (the natural measured table for a
// daisy-chained board) must not be rejected for leaving collective
// edges undefined. Everything that executes hops wants NewSchedule.
func NewBareSchedule(topo hw.Topology, n, groupSize int) (*Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("interconnect: need at least one chip, got %d", n)
	}
	switch topo {
	case hw.TopoTree:
		t, err := BuildTree(n, groupSize)
		if err != nil {
			return nil, err
		}
		return scheduleFromTree(hw.TopoTree, t), nil
	case hw.TopoStar:
		// The flat all-to-one shape is a degenerate tree whose one
		// group spans every chip; group size is irrelevant (but must
		// satisfy BuildTree's floor of 2).
		g := n
		if g < 2 {
			g = 2
		}
		t, err := BuildTree(n, g)
		if err != nil {
			return nil, err
		}
		return scheduleFromTree(hw.TopoStar, t), nil
	case hw.TopoRing:
		return ringSchedule(n), nil
	case hw.TopoFullyConnected:
		return fullyConnectedSchedule(n), nil
	default:
		return nil, fmt.Errorf("interconnect: %s is not a supported topology", topo)
	}
}

// Annotate resolves each hop's link class under the network
// description, collects the distinct classes in first-use order (the
// per-class accounting axis of the simulator) and the distinct (class,
// Frac) price keys, records each hop's key index, and counts the hops
// per (chip, key). Reduce hops are resolved before broadcast hops, so
// class 0 and key 0 are always those of the first reduce hop.
// NewSchedule annotates what it lowers; a schedule built or changed by
// hand must be annotated again before Validate accepts it. A hop whose
// chips lie outside 0..N-1 is an error here, as in Validate.
//
// A hop that crosses the same edge as its sender's previous hop reuses
// that edge's class: a ring chip sends over one edge only, so a 64-chip
// ring resolves 64 edges for its 8,064 hops, and on a table or view
// network every LinkFor is a registry read. last[from] holds the
// receiver of chip from's previous hop plus one (0 before its first)
// and that edge's class index.
func (s *Schedule) Annotate(net hw.Network) error {
	if s.N <= 0 {
		return fmt.Errorf("interconnect: schedule over %d chips / %d chunks", s.N, s.Chunks)
	}
	s.Classes, s.Keys = nil, nil
	type edge struct{ to, class int32 }
	last := make([]edge, s.N)
	index := map[hw.LinkClass]int32{}
	assign := func(hops []Hop) error {
		for i := range hops {
			h := &hops[i]
			if h.From < 0 || h.From >= s.N || h.To < 0 || h.To >= s.N {
				return fmt.Errorf("interconnect: hop %d->%d out of range", h.From, h.To)
			}
			e := &last[h.From]
			if e.to != int32(h.To)+1 {
				c, err := net.LinkFor(h.From, h.To)
				if err != nil {
					return fmt.Errorf("interconnect: %s schedule over %d chips: hop %d->%d: %w",
						s.Topology, s.N, h.From, h.To, err)
				}
				id, ok := index[c]
				if !ok {
					id = int32(len(s.Classes))
					index[c] = id
					s.Classes = append(s.Classes, c)
				}
				*e = edge{int32(h.To) + 1, id}
			}
			h.key = s.keyOf(PriceKey{Class: int(e.class), Frac: h.Frac})
		}
		return nil
	}
	if err := assign(s.Reduce); err != nil {
		return err
	}
	if err := assign(s.Broadcast); err != nil {
		return err
	}
	var buf [256]int32
	grid := countGrid(&buf, 3*s.N*len(s.Keys))
	for l, hops := range [2][]Hop{s.Reduce, s.Broadcast} {
		for i := range hops {
			s.count(grid, l, &hops[i])
		}
	}
	nk, block := len(s.Keys), s.N*len(s.Keys)
	cells := 0
	for _, cnt := range grid {
		if cnt > 0 {
			cells++
		}
	}
	out := make([]HopCount, 0, cells)
	out = appendCounts(out, grid[:block], nk)
	r := len(out)
	out = appendCounts(out, grid[block:2*block], nk)
	a := len(out)
	out = appendCounts(out, grid[2*block:], nk)
	s.ReduceSends, s.ReduceAdds, s.BroadcastSends = out[:r:r], out[r:a:a], out[a:]
	return nil
}

// keyOf returns the index of k in the schedule's Keys, appending it on
// its first use. A schedule has a handful of keys, so a scan beats a
// map.
func (s *Schedule) keyOf(k PriceKey) int32 {
	for i, have := range s.Keys {
		if have == k {
			return int32(i)
		}
	}
	s.Keys = append(s.Keys, k)
	return int32(len(s.Keys) - 1)
}

// count adds hop h of list l (0 the reduce, 1 the broadcast) to grid's
// three n×len(Keys) blocks of hop counts per (chip, key): the reduce
// hops by sender and by receiver, then the broadcast hops by sender.
// The hop's chips and key must be in range.
func (s *Schedule) count(grid []int32, l int, h *Hop) {
	nk, k := len(s.Keys), int(h.key)
	block := s.N * nk
	if l == 0 {
		grid[h.From*nk+k]++
		grid[block+h.To*nk+k]++
		return
	}
	grid[2*block+h.From*nk+k]++
}

// classOf returns the link class hop h of the schedule crosses, and
// the zero (undefined) class when its key, or its key's class, has
// nothing resolved behind it, as on a bare schedule.
func (s *Schedule) classOf(h *Hop) hw.LinkClass {
	if uint(h.key) >= uint(len(s.Keys)) {
		return hw.LinkClass{}
	}
	if c := s.Keys[h.key].Class; uint(c) < uint(len(s.Classes)) {
		return s.Classes[c]
	}
	return hw.LinkClass{}
}

// scheduleFromTree lowers a reduction tree (hierarchical or flat) to
// the generic schedule: whole-payload hops, root work on the root.
func scheduleFromTree(topo hw.Topology, t *Tree) *Schedule {
	return &Schedule{
		Topology:  topo,
		N:         t.N,
		Root:      t.Root,
		Chunks:    1,
		Depth:     t.Depth(),
		Reduce:    t.ReduceHops(),
		Broadcast: t.BroadcastHops(),
		Final:     []Final{{Chip: t.Root, Chunk: 0, Frac: 1}},
	}
}

// ringSchedule builds the classic ring all-reduce: a reduce-scatter of
// N-1 steps (chip i sends chunk (i-s) mod N to its successor, which
// accumulates it) followed by an all-gather of N-1 steps (chip i
// forwards chunk (i+1-s) mod N). After the reduce-scatter chip i owns
// the complete chunk (i+1) mod N and runs the root work on it, so the
// per-sync root work is sharded 1/N per chip. Every hop moves
// payload/N, which is what makes the ring bandwidth-optimal; the
// price is 2(N-1) serialized setup latencies.
func ringSchedule(n int) *Schedule {
	s := &Schedule{
		Topology:  hw.TopoRing,
		N:         n,
		Root:      0,
		Chunks:    n,
		Depth:     n - 1,
		Reduce:    make([]Hop, 0, n*(n-1)),
		Broadcast: make([]Hop, 0, n*(n-1)),
		Final:     make([]Final, 0, n),
	}
	frac := 1 / float64(n)
	for step := 0; step < n-1; step++ {
		for i := 0; i < n; i++ {
			s.Reduce = append(s.Reduce, Hop{
				From:            i,
				To:              (i + 1) % n,
				Chunk:           ((i-step)%n + n) % n,
				Frac:            frac,
				FromAccumulated: true,
			})
		}
	}
	for i := 0; i < n; i++ {
		s.Final = append(s.Final, Final{Chip: i, Chunk: (i + 1) % n, Frac: frac})
	}
	for step := 0; step < n-1; step++ {
		for i := 0; i < n; i++ {
			s.Broadcast = append(s.Broadcast, Hop{
				From:  i,
				To:    (i + 1) % n,
				Chunk: ((i+1-step)%n + n) % n,
				Frac:  frac,
			})
		}
	}
	if n == 1 {
		s.Depth = 0
		s.Final = []Final{{Chip: 0, Chunk: 0, Frac: 1}}
	}
	return s
}

// fullyConnectedSchedule builds the all-to-all exchange: every chip
// sends its original partial to every other chip and accumulates the
// N-1 partials it receives, then runs the full root work locally.
// One hop level deep and broadcast-free, at N(N-1) times the unit
// reduce traffic — the traffic extreme opposite the paper's tree.
func fullyConnectedSchedule(n int) *Schedule {
	s := &Schedule{
		Topology: hw.TopoFullyConnected,
		N:        n,
		Root:     0,
		Chunks:   1,
		Depth:    1,
	}
	if n == 1 {
		s.Depth = 0
	}
	s.Reduce = make([]Hop, 0, n*(n-1))
	s.Final = make([]Final, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			s.Reduce = append(s.Reduce, Hop{From: i, To: j, Frac: 1})
		}
	}
	for i := 0; i < n; i++ {
		s.Final = append(s.Final, Final{Chip: i, Chunk: 0, Frac: 1})
	}
	return s
}

// ScalePayload is the byte count one hop of the given fraction moves.
// Whole-payload hops (frac >= 1) pass the payload through untouched so
// the default tree stays byte-identical to the pre-topology simulator.
func ScalePayload(payload int64, frac float64) int64 {
	if frac >= 1 || payload <= 0 {
		return payload
	}
	return int64(math.Round(float64(payload) * frac))
}

// CollectiveBytes is the total link traffic of one synchronization
// under the schedule: the sum over hops of their payload share. For
// tree, star, and ring this is (N-1) * (reduce + bcast); the
// fully-connected exchange pays N(N-1) * reduce and broadcasts
// nothing.
func (s *Schedule) CollectiveBytes(reducePayload, bcastPayload int64) int64 {
	var total int64
	for _, h := range s.Reduce {
		total += ScalePayload(reducePayload, h.Frac)
	}
	for _, h := range s.Broadcast {
		total += ScalePayload(bcastPayload, h.Frac)
	}
	return total
}

// Validate checks the structural invariants every schedule must hold:
// indices in range, sane fractions, every hop resolved to a defined
// link class (no routing over unwired edges) under a price key of its
// own fraction, each chip's partial reaching a finalizing chip exactly
// once per chunk, the broadcast phase (together with the finalize
// placement) delivering every chunk to every chip in dependency order,
// and the recorded hop counts matching the lists. It reports the first
// violation: hops before finalizes before the broadcast before the
// counts, each list in order.
func (s *Schedule) Validate() error {
	if s.N <= 0 || s.Chunks <= 0 {
		return fmt.Errorf("interconnect: schedule over %d chips / %d chunks", s.N, s.Chunks)
	}
	if s.Root < 0 || s.Root >= s.N {
		return fmt.Errorf("interconnect: root %d out of range", s.Root)
	}
	nk, block := len(s.Keys), s.N*len(s.Keys)
	var buf [256]int32
	grid := countGrid(&buf, 3*block)
	for l, hops := range [2][]Hop{s.Reduce, s.Broadcast} {
		for i := range hops {
			h := &hops[i]
			if h.From < 0 || h.From >= s.N || h.To < 0 || h.To >= s.N || h.From == h.To {
				return fmt.Errorf("interconnect: hop %d->%d out of range", h.From, h.To)
			}
			if h.Chunk < 0 || h.Chunk >= s.Chunks {
				return fmt.Errorf("interconnect: hop %d->%d chunk %d out of range", h.From, h.To, h.Chunk)
			}
			if !(h.Frac > 0 && h.Frac <= 1) {
				return fmt.Errorf("interconnect: hop %d->%d fraction %g out of (0,1]", h.From, h.To, h.Frac)
			}
			if !s.classOf(h).Defined() {
				return fmt.Errorf("interconnect: hop %d->%d crosses an undefined edge (no link class resolved; lower the schedule with NewSchedule against a network that wires it)", h.From, h.To)
			}
			if k := s.Keys[h.key].Frac; k != h.Frac {
				return fmt.Errorf("interconnect: hop %d->%d of fraction %g is priced at fraction %g (annotate the schedule again after changing a hop)", h.From, h.To, h.Frac, k)
			}
			s.count(grid, l, h)
		}
	}

	bad, badChip, badGot := s.reduceCounts()
	for i := range s.Final {
		f := &s.Final[i]
		if f.Chip < 0 || f.Chip >= s.N || f.Chunk < 0 || f.Chunk >= s.Chunks {
			return fmt.Errorf("interconnect: finalize (%d, chunk %d) out of range", f.Chip, f.Chunk)
		}
		if !(f.Frac > 0 && f.Frac <= 1) {
			return fmt.Errorf("interconnect: finalize fraction %g out of (0,1]", f.Frac)
		}
		if i == bad {
			return fmt.Errorf("interconnect: chunk %d finalized on chip %d holds chip %d's partial %d times, want exactly once",
				f.Chunk, f.Chip, badChip, badGot)
		}
	}
	if len(s.Final) == 0 {
		return fmt.Errorf("interconnect: no finalizing chip")
	}

	// Broadcast reachability: starting from the finalized (chip,
	// chunk) pairs, every hop must forward an already-present chunk,
	// and afterwards every chip must hold every chunk.
	n, chunks := s.N, s.Chunks
	has := make([]bool, n*chunks)
	for _, f := range s.Final {
		has[f.Chip*chunks+f.Chunk] = true
	}
	for i := range s.Broadcast {
		h := &s.Broadcast[i]
		if !has[h.From*chunks+h.Chunk] {
			return fmt.Errorf("interconnect: broadcast hop %d->%d forwards chunk %d before receiving it",
				h.From, h.To, h.Chunk)
		}
		has[h.To*chunks+h.Chunk] = true
	}
	for c := 0; c < n; c++ {
		for q := 0; q < chunks; q++ {
			if !has[c*chunks+q] {
				return fmt.Errorf("interconnect: chunk %d never reaches chip %d", q, c)
			}
		}
	}
	if !countsMatch(s.ReduceSends, grid[:block], nk) || !countsMatch(s.ReduceAdds, grid[block:2*block], nk) ||
		!countsMatch(s.BroadcastSends, grid[2*block:], nk) {
		return fmt.Errorf("interconnect: the recorded hop counts do not match the hop lists (annotate the schedule again after changing a hop)")
	}
	return nil
}

// reduceCounts runs the symbolic reduce of a schedule whose hops are
// in range and returns the first finalize, by index, that does not
// hold every chip's partial exactly once: its index (len(s.Final) if
// none), the first chip whose partial it miscounts, and that count.
// Finalizes out of range are skipped; Validate reports them.
//
// counts[c*N+src] counts how many times chip src's original partial
// has been folded into chip c's accumulator of one chunk. An
// accumulated send moves the live set; a plain send moves only the
// sender's own contribution. A hop reads and writes only accumulators
// of its own chunk, so the reduce runs one chunk at a time over one
// reused N×N matrix, replaying that chunk's hops in schedule order: a
// 64-chip ring counts in 32 KiB instead of 2 MiB for every (chip,
// chunk) accumulator at once.
func (s *Schedule) reduceCounts() (bad, badChip, badGot int) {
	n, chunks := s.N, s.Chunks
	// Bucket the reduce hops by chunk, stably: after the fill, end[q]
	// ends chunk q's run of at, which starts where chunk q-1's ends.
	idx := make([]int32, chunks+len(s.Reduce))
	end, at := idx[:chunks], idx[chunks:]
	for i := range s.Reduce {
		if q := s.Reduce[i].Chunk; q+1 < chunks {
			end[q+1]++
		}
	}
	for q := 1; q < chunks; q++ {
		end[q] += end[q-1]
	}
	for i := range s.Reduce {
		q := s.Reduce[i].Chunk
		at[end[q]] = int32(i)
		end[q]++
	}

	bad = len(s.Final)
	counts := make([]int, n*n)
	var lo int32
	for q := 0; q < chunks; q++ {
		clear(counts)
		for c := 0; c < n; c++ {
			counts[c*n+c] = 1
		}
		for _, i := range at[lo:end[q]] {
			fold(counts, n, &s.Reduce[i])
		}
		lo = end[q]
		for i := 0; i < bad; i++ {
			f := &s.Final[i]
			if f.Chunk != q || f.Chip < 0 || f.Chip >= n {
				continue
			}
			for chip, got := range counts[f.Chip*n : f.Chip*n+n] {
				if got != 1 {
					bad, badChip, badGot = i, chip, got
					break
				}
			}
		}
	}
	return bad, badChip, badGot
}

// fold replays reduce hop h on the count matrix of its chunk.
func fold(counts []int, n int, h *Hop) {
	to := counts[h.To*n : h.To*n+n : h.To*n+n]
	if !h.FromAccumulated {
		to[h.From]++
		return
	}
	from := counts[h.From*n : h.From*n+n : h.From*n+n]
	to = to[:len(from)]
	for src, cnt := range from {
		to[src] += cnt
	}
}
