package interconnect

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mcudist/internal/hw"
)

// netParams returns a Siracusa platform (uniform MIPI network) with
// the given topology and group size.
func netParams(topo hw.Topology, groupSize int) hw.Params {
	p := hw.Siracusa()
	p.Topology = topo
	p.GroupSize = groupSize
	return p
}

// Every topology's schedule must satisfy the structural invariants:
// each chip's partial folded into a finalizing chip exactly once per
// chunk, and the broadcast phase delivering every chunk to every chip
// in dependency order. This covers the satellite invariants "every
// chip's partial reaches the root exactly once" and "broadcast
// reaches all chips" for all four shapes.
func TestScheduleInvariantsAllTopologies(t *testing.T) {
	for _, topo := range hw.Topologies() {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 16, 33, 64} {
			sched, err := NewSchedule(netParams(topo, 4), n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", topo, n, err)
			}
			if err := sched.Validate(); err != nil {
				t.Errorf("%s n=%d: %v", topo, n, err)
			}
			if sched.N != n || sched.Topology != topo {
				t.Errorf("%s n=%d: schedule reports n=%d topo=%s", topo, n, sched.N, sched.Topology)
			}
		}
	}
}

// The default tree schedule must be exactly the tree's hop lists —
// the simulator path the golden tests pin byte-identical.
func TestTreeScheduleMatchesTree(t *testing.T) {
	sched, err := NewSchedule(netParams(hw.TopoTree, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := BuildTree(8, 4)
	if sched.Root != tr.Root || sched.Depth != tr.Depth() {
		t.Fatalf("tree schedule root/depth = %d/%d, want %d/%d",
			sched.Root, sched.Depth, tr.Root, tr.Depth())
	}
	if len(sched.Reduce) != len(tr.ReduceHops()) || len(sched.Broadcast) != len(tr.BroadcastHops()) {
		t.Fatal("tree schedule hop counts differ from the tree's")
	}
	for i, h := range sched.Reduce {
		want := tr.ReduceHops()[i]
		if h.From != want.From || h.To != want.To || h.Frac != 1 || !h.FromAccumulated || h.Chunk != 0 {
			t.Fatalf("reduce hop %d = %+v, want whole-payload %d->%d", i, h, want.From, want.To)
		}
	}
	if len(sched.Final) != 1 || sched.Final[0].Chip != tr.Root || sched.Final[0].Frac != 1 {
		t.Fatalf("tree finalize = %+v, want full root work on %d", sched.Final, tr.Root)
	}
}

// The star is the explicit spelling of the old GroupSize >= n flat
// tree: one group, every chip a direct child of the root.
func TestStarScheduleIsFlat(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		sched, err := NewSchedule(netParams(hw.TopoStar, 4), n) // group size ignored
		if err != nil {
			t.Fatal(err)
		}
		wantDepth := 1
		if n == 1 {
			wantDepth = 0
		}
		if sched.Depth != wantDepth {
			t.Errorf("star n=%d depth = %d, want %d", n, sched.Depth, wantDepth)
		}
		for i, h := range sched.Reduce {
			if h.To != sched.Root || h.From != i+1 {
				t.Errorf("star n=%d reduce hop %d = %+v, want %d->root", n, i, h, i+1)
			}
		}
	}
}

// Ring: 2(N-1) steps of N chunk hops each, chip i owning chunk
// (i+1) mod N after the reduce-scatter, root work sharded 1/N.
func TestRingScheduleShape(t *testing.T) {
	const n = 8
	sched, err := NewSchedule(netParams(hw.TopoRing, 4), n)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Reduce); got != n*(n-1) {
		t.Fatalf("ring reduce hops = %d, want %d", got, n*(n-1))
	}
	if got := len(sched.Broadcast); got != n*(n-1) {
		t.Fatalf("ring bcast hops = %d, want %d", got, n*(n-1))
	}
	if sched.Chunks != n || sched.Depth != n-1 {
		t.Fatalf("ring chunks/depth = %d/%d, want %d/%d", sched.Chunks, sched.Depth, n, n-1)
	}
	var fracSum float64
	for _, f := range sched.Final {
		fracSum += f.Frac
		if f.Chunk != (f.Chip+1)%n {
			t.Errorf("chip %d finalizes chunk %d, want %d", f.Chip, f.Chunk, (f.Chip+1)%n)
		}
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Errorf("ring root-work shares sum to %g, want 1", fracSum)
	}
	for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
		if h.To != (h.From+1)%n {
			t.Errorf("ring hop %d->%d leaves the ring", h.From, h.To)
		}
	}
}

// Fully connected: N(N-1) direct sends of the original partial, no
// broadcast, root work replicated on every chip.
func TestFullyConnectedScheduleShape(t *testing.T) {
	const n = 5
	sched, err := NewSchedule(netParams(hw.TopoFullyConnected, 4), n)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Reduce); got != n*(n-1) {
		t.Fatalf("fc reduce hops = %d, want %d", got, n*(n-1))
	}
	if len(sched.Broadcast) != 0 {
		t.Fatal("fc must not broadcast")
	}
	if len(sched.Final) != n {
		t.Fatalf("fc finalizes on %d chips, want %d", len(sched.Final), n)
	}
	for _, h := range sched.Reduce {
		if h.FromAccumulated {
			t.Fatalf("fc hop %d->%d must send the original partial", h.From, h.To)
		}
	}
}

// Collective traffic per sync: (N-1)(reduce+bcast) for tree, star,
// and (up to chunk rounding) ring; N(N-1) * reduce for the
// fully-connected exchange.
func TestCollectiveBytes(t *testing.T) {
	const n, r, b = 8, 8192, 4096
	for _, tc := range []struct {
		topo hw.Topology
		want int64
	}{
		{hw.TopoTree, (n - 1) * (r + b)},
		{hw.TopoStar, (n - 1) * (r + b)},
		{hw.TopoRing, (n - 1) * (r + b)},
		{hw.TopoFullyConnected, n * (n - 1) * r},
	} {
		sched, err := NewSchedule(netParams(tc.topo, 4), n)
		if err != nil {
			t.Fatal(err)
		}
		got := sched.CollectiveBytes(r, b)
		// The ring rounds per-chunk payloads; r and b divide evenly
		// by n here, so all four are exact.
		if got != tc.want {
			t.Errorf("%s collective bytes = %d, want %d", tc.topo, got, tc.want)
		}
	}
}

func TestScalePayload(t *testing.T) {
	if got := ScalePayload(12345, 1); got != 12345 {
		t.Errorf("whole-payload scaling changed bytes: %d", got)
	}
	if got := ScalePayload(1000, 0.25); got != 250 {
		t.Errorf("quarter share = %d, want 250", got)
	}
	if got := ScalePayload(0, 0.5); got != 0 {
		t.Errorf("zero payload scaled to %d", got)
	}
}

func TestNewScheduleErrors(t *testing.T) {
	if _, err := NewSchedule(netParams(hw.TopoTree, 4), 0); err == nil {
		t.Error("zero chips accepted")
	}
	if _, err := NewSchedule(netParams(hw.TopoTree, 1), 8); err == nil {
		t.Error("group size 1 accepted for the tree")
	}
	if _, err := NewSchedule(netParams(hw.Topology(99), 4), 8); err == nil {
		t.Error("unknown topology accepted")
	}
	// Star and ring do not consult the group size.
	if _, err := NewSchedule(netParams(hw.TopoStar, 0), 8); err != nil {
		t.Errorf("star rejected irrelevant group size: %v", err)
	}
	if _, err := NewSchedule(netParams(hw.TopoRing, 0), 8); err != nil {
		t.Errorf("ring rejected irrelevant group size: %v", err)
	}
}

// BuildTree edge cases the tentpole refactor must preserve: single
// chip, chip counts that are not multiples of the group size, and the
// depth recurrence.
func TestBuildTreeEdgeCases(t *testing.T) {
	cases := []struct {
		n, g, depth int
	}{
		{1, 4, 0},
		{2, 4, 1},
		{4, 4, 1},
		{5, 4, 1},  // 5 -> 2 -> 1; chip 4 is its own leader, one hop to root
		{6, 4, 2},  // 6 -> 2 -> 1; 5 -> 4 -> 0
		{7, 2, 2},  // 7 -> 4 -> 2 -> 1; the lone trailing chip passes levels hop-free
		{9, 4, 2},  // 9 -> 3 -> 1
		{17, 4, 2}, // 17 -> 5 -> 2 -> 1; chip 16 leads itself until the last level
		{64, 8, 2}, // 64 -> 8 -> 1
	}
	for _, c := range cases {
		tr, err := BuildTree(c.n, c.g)
		if err != nil {
			t.Fatalf("n=%d g=%d: %v", c.n, c.g, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d g=%d: %v", c.n, c.g, err)
		}
		if got := tr.Depth(); got != c.depth {
			t.Errorf("n=%d g=%d depth = %d, want %d", c.n, c.g, got, c.depth)
		}
		if len(tr.ReduceHops()) != c.n-1 || len(tr.BroadcastHops()) != c.n-1 {
			t.Errorf("n=%d g=%d: hop counts not n-1", c.n, c.g)
		}
	}
}

// A corrupted schedule must fail validation: duplicated contribution,
// missing broadcast coverage, and out-of-order forwarding. The 8-chip
// tree has one chunk; the ring cases exercise the chunk axis of the
// dense counters, where a row-index slip would hide. Each verdict and
// error text must also match the reference validator's.
func TestScheduleValidateCatchesCorruption(t *testing.T) {
	tree, _ := NewSchedule(netParams(hw.TopoTree, 4), 8)
	ring, _ := NewSchedule(netParams(hw.TopoRing, 4), 8)
	fc, _ := NewSchedule(netParams(hw.TopoFullyConnected, 4), 4)
	// Hop 19 of the 8-chip ring is step 2's 3->4 send of chunk 1,
	// which chip 0 finalizes after four more accumulating hops.
	const mid = 19
	for _, tc := range []struct {
		name   string
		mutate func() *Schedule
		want   string
	}{
		{"tree double contribution", func() *Schedule {
			dup := *tree
			dup.Reduce = append(append([]Hop{}, tree.Reduce...), Hop{From: 1, To: 0, Frac: 1, FromAccumulated: false})
			return &dup
		}, "exactly once"},
		{"tree unreached chip", func() *Schedule {
			short := *tree
			short.Broadcast = tree.Broadcast[:len(tree.Broadcast)-1]
			return &short
		}, "never reaches"},
		{"tree out-of-order broadcast", func() *Schedule {
			// Swapping first and last hop of the 8-chip tree broadcast
			// makes a chip forward before it received.
			re := *tree
			re.Broadcast = append([]Hop{}, tree.Broadcast...)
			last := len(re.Broadcast) - 1
			re.Broadcast[0], re.Broadcast[last] = re.Broadcast[last], re.Broadcast[0]
			return &re
		}, "before receiving"},
		{"ring reduce-scatter hop duplicated in place", func() *Schedule {
			dup := *ring
			dup.Reduce = append(append(append([]Hop{}, ring.Reduce[:mid+1]...), ring.Reduce[mid]), ring.Reduce[mid+1:]...)
			return &dup
		}, "partial 2 times"},
		{"ring reduce hop dropped", func() *Schedule {
			drop := *ring
			drop.Reduce = append(append([]Hop{}, ring.Reduce[:mid]...), ring.Reduce[mid+1:]...)
			return &drop
		}, "partial 0 times"},
		{"ring final moved to a chunk its chip does not own", func() *Schedule {
			moved := *ring
			moved.Final = append([]Final{}, ring.Final...)
			moved.Final[3].Chunk = 6 // chip 3 owns chunk 4
			return &moved
		}, "exactly once"},
		{"ring hops of two chunks dropped, the later chunk's finalize first", func() *Schedule {
			// Hop 0 (0->1) carries chunk 0, which chip 7 finalizes as
			// Final[7]; hop 7 (7->0) carries chunk 7, which chip 6
			// finalizes as Final[6]. Validate counts chunk 0 first but
			// must report Final[6], the first finalize in order.
			drop := *ring
			drop.Reduce = append(append([]Hop{}, ring.Reduce[1:7]...), ring.Reduce[8:]...)
			return &drop
		}, "chunk 7 finalized on chip 6 holds chip 7's partial 0 times"},
		{"fully-connected sends to two finalizes of one chunk dropped", func() *Schedule {
			// Hops 0 and 1 are 0->1 and 0->2; both finalizes miss chip
			// 0's partial, and the first in order is reported.
			drop := *fc
			drop.Reduce = append([]Hop{}, fc.Reduce[2:]...)
			return &drop
		}, "chunk 0 finalized on chip 1 holds chip 0's partial 0 times"},
		{"ring broadcast hops swapped", func() *Schedule {
			// Step 1's 0->1 hop forwards chunk 0, which chip 0 receives
			// only from step 0's 7->0 hop.
			sw := *ring
			sw.Broadcast = append([]Hop{}, ring.Broadcast...)
			sw.Broadcast[7], sw.Broadcast[8] = sw.Broadcast[8], sw.Broadcast[7]
			return &sw
		}, "before receiving"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mutate()
			err := s.Validate()
			if err == nil {
				t.Fatal("corruption not caught")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
			if ref := validateReference(s); ref == nil || ref.Error() != err.Error() {
				t.Errorf("Validate says %q, the reference %v", err, ref)
			}
		})
	}
}

// validateReference is Validate as it was before it counted over one
// dense array: one map of source chips per (chip, chunk), the reduce
// replayed once over every chunk. It reads each hop's link class
// through its price key and the schedule's Classes, as Validate does,
// and recounts the hops per (chip, key) in maps. It is the oracle
// FuzzScheduleValidate and the corruption cases hold Validate to,
// verdict and error text alike.
func validateReference(s *Schedule) error {
	if s.N <= 0 || s.Chunks <= 0 {
		return fmt.Errorf("interconnect: schedule over %d chips / %d chunks", s.N, s.Chunks)
	}
	if s.Root < 0 || s.Root >= s.N {
		return fmt.Errorf("interconnect: root %d out of range", s.Root)
	}
	for _, h := range append(append([]Hop{}, s.Reduce...), s.Broadcast...) {
		if h.From < 0 || h.From >= s.N || h.To < 0 || h.To >= s.N || h.From == h.To {
			return fmt.Errorf("interconnect: hop %d->%d out of range", h.From, h.To)
		}
		if h.Chunk < 0 || h.Chunk >= s.Chunks {
			return fmt.Errorf("interconnect: hop %d->%d chunk %d out of range", h.From, h.To, h.Chunk)
		}
		if math.IsNaN(h.Frac) || h.Frac <= 0 || h.Frac > 1 {
			return fmt.Errorf("interconnect: hop %d->%d fraction %g out of (0,1]", h.From, h.To, h.Frac)
		}
		if h.key < 0 || int(h.key) >= len(s.Keys) {
			return fmt.Errorf("interconnect: hop %d->%d crosses an undefined edge (no link class resolved; lower the schedule with NewSchedule against a network that wires it)", h.From, h.To)
		}
		k := s.Keys[h.key]
		if k.Class < 0 || k.Class >= len(s.Classes) || !s.Classes[k.Class].Defined() {
			return fmt.Errorf("interconnect: hop %d->%d crosses an undefined edge (no link class resolved; lower the schedule with NewSchedule against a network that wires it)", h.From, h.To)
		}
		if k.Frac != h.Frac {
			return fmt.Errorf("interconnect: hop %d->%d of fraction %g is priced at fraction %g (annotate the schedule again after changing a hop)", h.From, h.To, h.Frac, k.Frac)
		}
	}

	contrib := make([][]map[int]int, s.N)
	for c := range contrib {
		contrib[c] = make([]map[int]int, s.Chunks)
		for q := range contrib[c] {
			contrib[c][q] = map[int]int{c: 1}
		}
	}
	for _, h := range s.Reduce {
		sent := map[int]int{h.From: 1}
		if h.FromAccumulated {
			sent = contrib[h.From][h.Chunk]
		}
		for chip, cnt := range sent {
			contrib[h.To][h.Chunk][chip] += cnt
		}
	}
	for _, f := range s.Final {
		if f.Chip < 0 || f.Chip >= s.N || f.Chunk < 0 || f.Chunk >= s.Chunks {
			return fmt.Errorf("interconnect: finalize (%d, chunk %d) out of range", f.Chip, f.Chunk)
		}
		if math.IsNaN(f.Frac) || f.Frac <= 0 || f.Frac > 1 {
			return fmt.Errorf("interconnect: finalize fraction %g out of (0,1]", f.Frac)
		}
		for chip := 0; chip < s.N; chip++ {
			if got := contrib[f.Chip][f.Chunk][chip]; got != 1 {
				return fmt.Errorf("interconnect: chunk %d finalized on chip %d holds chip %d's partial %d times, want exactly once",
					f.Chunk, f.Chip, chip, got)
			}
		}
	}
	if len(s.Final) == 0 {
		return fmt.Errorf("interconnect: no finalizing chip")
	}

	has := make([][]bool, s.N)
	for c := range has {
		has[c] = make([]bool, s.Chunks)
	}
	for _, f := range s.Final {
		has[f.Chip][f.Chunk] = true
	}
	for _, h := range s.Broadcast {
		if !has[h.From][h.Chunk] {
			return fmt.Errorf("interconnect: broadcast hop %d->%d forwards chunk %d before receiving it",
				h.From, h.To, h.Chunk)
		}
		has[h.To][h.Chunk] = true
	}
	for c := 0; c < s.N; c++ {
		for q := 0; q < s.Chunks; q++ {
			if !has[c][q] {
				return fmt.Errorf("interconnect: chunk %d never reaches chip %d", q, c)
			}
		}
	}
	tally := func(hops []Hop, recv bool) []HopCount {
		counts := map[[2]int]int{}
		for _, h := range hops {
			chip := h.From
			if recv {
				chip = h.To
			}
			counts[[2]int{chip, int(h.key)}]++
		}
		var out []HopCount
		for ck, n := range counts {
			out = append(out, HopCount{Chip: int32(ck[0]), Key: int32(ck[1]), Hops: int32(n)})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Chip != out[j].Chip {
				return out[i].Chip < out[j].Chip
			}
			return out[i].Key < out[j].Key
		})
		return out
	}
	if !slices.Equal(tally(s.Reduce, false), s.ReduceSends) || !slices.Equal(tally(s.Reduce, true), s.ReduceAdds) ||
		!slices.Equal(tally(s.Broadcast, false), s.BroadcastSends) {
		return fmt.Errorf("interconnect: the recorded hop counts do not match the hop lists (annotate the schedule again after changing a hop)")
	}
	return nil
}

// FuzzScheduleValidate builds a tree, star, ring or fully-connected
// schedule over 1-64 chips and applies fuzz-chosen mutations, five
// bytes each: kind, list (even: reduce, odd: broadcast), a two-byte
// hop or finalize index, and a value. Validate and validateReference
// must agree on the verdict and the error text.
func FuzzScheduleValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, topo, chips uint8, ops []byte) {
		n := 1 + int(chips)%64
		s, err := NewSchedule(netParams(hw.Topologies()[int(topo)%len(hw.Topologies())], 4), n)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k+5 <= len(ops) && k < 5*32; k += 5 {
			kind, list, i, v := ops[k]%6, ops[k+1], int(ops[k+2])<<8|int(ops[k+3]), int(ops[k+4])
			if kind == 5 {
				// Move a finalize, possibly out of range.
				fin := &s.Final[i%len(s.Final)]
				if list%2 == 0 {
					fin.Chip = v%(s.N+2) - 1
				} else {
					fin.Chunk = v%(s.Chunks+2) - 1
				}
				continue
			}
			hops := &s.Reduce
			if list%2 == 1 {
				hops = &s.Broadcast
			}
			if len(*hops) == 0 {
				continue
			}
			i %= len(*hops)
			switch kind {
			case 0: // drop
				*hops = append((*hops)[:i:i], (*hops)[i+1:]...)
			case 1: // duplicate in place
				*hops = append((*hops)[:i+1:i+1], (*hops)[i:]...)
			case 2: // swap
				j := v % len(*hops)
				(*hops)[i], (*hops)[j] = (*hops)[j], (*hops)[i]
			case 3: // re-chunk, possibly out of range
				(*hops)[i].Chunk = v%(s.Chunks+2) - 1
			case 4:
				(*hops)[i].FromAccumulated = !(*hops)[i].FromAccumulated
			}
		}
		got, want := s.Validate(), validateReference(s)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s over %d chips: Validate = %v, reference = %v", s.Topology, n, got, want)
		}
	})
}

// Lowering and validating the heaviest stock schedule — the 64-chip
// ring on a clustered network, 8,064 hops over two link classes — must
// allocate a bounded number of times, not once per hop or per (chip,
// chunk) pair as a map-per-accumulator validation does (31,150), and a
// bounded number of bytes: the 40-byte hops (323 KB) plus scratch that
// grows with N², not the 2.1 MB a count per (chip, chunk, source chip)
// took, when the whole lowering allocated 2.63 MB.
func TestRingLoweringAllocs(t *testing.T) {
	p := netParams(hw.TopoRing, 4)
	p.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	lower := func() {
		s, err := NewSchedule(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, lower); allocs > 32 {
		t.Errorf("lowering and validating the 64-chip clustered ring allocates %.0f times, want at most 32", allocs)
	}
	const budget = 512 << 10
	if bytes := bytesPerRun(5, lower); bytes > budget {
		t.Errorf("lowering and validating the 64-chip clustered ring allocates %d bytes, want at most %d", bytes, budget)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, measured on one P after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// Every schedule hop of a 64-chip collective is one Hop; it keeps its
// link class as an index into the schedule's Classes, in
// FromAccumulated's padding, not as a 24-byte LinkClass.
func TestHopStays40Bytes(t *testing.T) {
	if strconv.IntSize == 64 && unsafe.Sizeof(Hop{}) != 40 {
		t.Errorf("Hop is %d bytes, want 40", unsafe.Sizeof(Hop{}))
	}
}
