// Package memsim models the off-chip memory path as a hierarchy
// instead of a flat byte count: streamed GEMM weights move through a
// DRAM channel (per-burst setup plus bandwidth) into a bounded stream
// buffer of tile slots, a prefetch engine runs up to PrefetchDepth
// tiles ahead of compute, and an N-bank SRAM arbiter charges a
// contention stall whenever a prefetch is in flight during a tile's
// compute.
//
// The unit of planning is one GEMM: PlanGEMM cuts its K×N weight
// matrix into TileK×TileN tiles (N-major order, so each output column
// group's partial sums complete before the next begins) and prices
// each tile shape's DRAM fetch, L2→L1 DMA, compute share, and bank
// stall; a plan has at most four shapes however many tiles it has.
// Plan.Makespan evaluates the pipeline recurrence in closed form; the
// performance simulator replays the identical per-tile costs on its
// chip devices, so the closed form and the simulated result agree
// exactly — which is what lets explore.AutotuneTiling use plan
// makespans as a zero-probe additive predictor.
//
// Tiling is a real trade-off, not a monotone knob: small tiles overlap
// better (more fetch/compute interleave) but pay more per-burst DRAM
// setups, more per-transfer DMA setups, and — because each column
// group re-reads the M×K activation slice — more activation refetch
// passes (ceil(N/TileN) of them). Attention-family GEMMs (narrow N
// per chip, M = 1 in decode) and FFN GEMMs (wide K and N) therefore
// prefer different tilings; that divergence is pinned as an ablation
// in internal/experiments.
package memsim

import (
	"fmt"
	"iter"
	"strconv"
	"strings"

	"mcudist/internal/hw"
	"mcudist/internal/kernels"
)

// Tiling names one weight-tile shape: K rows by N columns of the
// weight matrix, in elements. The zero value means "auto": the
// largest tile that fits one stream-buffer slot.
type Tiling struct {
	K, N int
}

// Zero reports whether the tiling requests auto sizing.
func (t Tiling) Zero() bool { return t.K == 0 && t.N == 0 }

// String prints the flag spelling "KxN" ("auto" for the zero value).
func (t Tiling) String() string {
	if t.Zero() {
		return "auto"
	}
	return fmt.Sprintf("%dx%d", t.K, t.N)
}

// ParseTiling parses the "KxN" flag spelling (e.g. "256x128" = 256
// rows of K by 128 columns of N); "auto" or "" yield the zero value.
func ParseTiling(s string) (Tiling, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" || s == "auto" {
		return Tiling{}, nil
	}
	a, b, ok := strings.Cut(s, "x")
	if !ok {
		return Tiling{}, fmt.Errorf("memsim: tiling %q is not KxN (e.g. 256x128) or auto", s)
	}
	k, err := strconv.Atoi(strings.TrimSpace(a))
	if err != nil {
		return Tiling{}, fmt.Errorf("memsim: tiling K in %q: %v", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(b))
	if err != nil {
		return Tiling{}, fmt.Errorf("memsim: tiling N in %q: %v", s, err)
	}
	if k <= 0 || n <= 0 {
		return Tiling{}, fmt.Errorf("memsim: tiling %q must have positive dims", s)
	}
	return Tiling{K: k, N: n}, nil
}

// Channel is the priced memory path of one chip: the DRAM side
// (payload bandwidth, burst granule, per-burst setup), the prefetch
// engine's depth and slot capacity, the SRAM bank count, and the
// L2→L1 cluster DMA the computed tiles still traverse.
type Channel struct {
	// BytesPerCycle is DRAM payload bandwidth per cluster cycle.
	BytesPerCycle float64
	// BurstBytes is the DRAM burst granule.
	BurstBytes int64
	// SetupCycles is the fixed cost of opening one burst.
	SetupCycles int
	// Depth is the prefetch depth: tiles the engine may run ahead.
	Depth int
	// Banks is the SRAM bank count of the arbiter.
	Banks int
	// SlotBytes is the capacity of one stream-buffer tile slot.
	SlotBytes int64
	// L2BytesPerCycle / L2SetupCycles / L1TileBytes describe the
	// cluster DMA that moves each fetched tile (plus its activation
	// slices) between L2 and L1.
	L2BytesPerCycle float64
	L2SetupCycles   int
	L1TileBytes     int64
}

// ChannelOf derives the priced channel from a platform description.
// Meaningful only when p.Mem.Enabled().
func ChannelOf(p hw.Params) Channel {
	return Channel{
		BytesPerCycle:   p.Mem.DRAMBytesPerCycle,
		BurstBytes:      int64(p.Mem.DRAMBurstBytes),
		SetupCycles:     p.Mem.DRAMBurstSetupCycles,
		Depth:           p.Mem.PrefetchDepth,
		Banks:           p.Mem.SRAMBanks,
		SlotBytes:       int64(p.Chip.L1Bytes / 2),
		L2BytesPerCycle: p.Chip.DMAL2L1BytesPerCycle,
		L2SetupCycles:   p.Chip.DMAL2L1SetupCycles,
		L1TileBytes:     int64(p.Chip.L1Bytes / 2),
	}
}

// TransferCycles prices moving n bytes over the DRAM channel:
// bandwidth time plus one setup per burst.
func (c Channel) TransferCycles(bytes int64) float64 {
	return kernels.DMATime(bytes, c.BytesPerCycle, c.SetupCycles, c.BurstBytes)
}

// GEMM is the planning view of one weight-streaming kernel: the M×K·K×N
// shape, element widths, and the kernel's total compute cycles (tile
// compute shares are prorated from it).
type GEMM struct {
	M, K, N         int
	WeightElemBytes int
	ActElemBytes    int
	ComputeCycles   float64
}

// GEMMOf extracts the planning view from a kernel cost. The second
// return is false for costs that don't stream a tileable weight
// matrix (elementwise kernels, activation-activation matmuls, and
// composite costs, whose dims Add deliberately dropped).
func GEMMOf(c kernels.Cost) (GEMM, bool) {
	if c.M <= 0 || c.K <= 0 || c.N <= 0 || c.WeightBytes <= 0 {
		return GEMM{}, false
	}
	kn := int64(c.K) * int64(c.N)
	mk := int64(c.M) * int64(c.K)
	wb := c.WeightBytes / kn
	ab := int64(1)
	if c.ActInBytes > 0 {
		ab = c.ActInBytes / mk
	}
	if wb <= 0 || ab <= 0 {
		return GEMM{}, false
	}
	return GEMM{
		M:               c.M,
		K:               c.K,
		N:               c.N,
		WeightElemBytes: int(wb),
		ActElemBytes:    int(ab),
		ComputeCycles:   c.Cycles,
	}, true
}

// Tile is the price of one tile of a plan: its DRAM channel
// occupancy, its L2→L1 cluster-DMA occupancy (weight tile + activation
// slice in + partial out on column-group boundaries), its prorated
// compute-cluster occupancy, its SRAM bank-contention charge, and its
// L2↔L1 traffic in bytes.
//
// Stall is what the arbiter steals while the next tile's prefetch is
// in flight during this tile's work: min(DMA+Comp, next Fetch) /
// Banks, zero for the last tile. Deterministic by construction — it
// depends on the tile prices, not on event timing — which keeps the
// closed form and the event replay identical and makes the charge
// monotone in Banks.
type Tile struct {
	Fetch, DMA, Comp, Stall float64
	L2L1Bytes               int64
}

// A plan's tiles come in at most four shapes: the interior or last K
// band of a column group × an interior or last column group. The last
// band is ragged when TileK does not divide K and also writes the
// column group's output back; the last group is ragged when TileN
// does not divide N. A shape index has lastBand set for a group's
// last K band and lastGroup set for the last column group.
const (
	lastBand  = 1
	lastGroup = 2
)

// Plan is the fully priced tile schedule of one GEMM. It stores the
// price of each tile shape and of each (shape, next shape) stall, not
// one entry per tile; All walks the tiles in execution order (N-major,
// K-inner).
type Plan struct {
	Tiling Tiling
	// Tiles = ceil(K/TileK) * ceil(N/TileN).
	Tiles int
	// ActPasses = ceil(N/TileN): how many times the M×K activation
	// slice is re-read (once per output column group).
	ActPasses int
	// Depth and Banks echo the channel knobs the plan was priced
	// under (the recurrence needs Depth; Banks is already folded into
	// each tile's Stall).
	Depth, Banks int

	// WeightBytes is the whole weight matrix (= sum of tile fetches'
	// payloads), billed once as off-chip traffic.
	WeightBytes int64

	// bands = ceil(K/TileK): K bands per column group.
	bands int
	// shape[s] is shape s's tile, with Stall zero; stall[s][n] is the
	// Stall of a shape-s tile followed by a shape-n tile.
	shape [4]Tile
	stall [4][4]float64
}

// shapeOf returns the shape index of the tile in column group n, K
// band k.
func (p *Plan) shapeOf(n, k int) int {
	s := 0
	if k == p.bands-1 {
		s |= lastBand
	}
	if n == p.ActPasses-1 {
		s |= lastGroup
	}
	return s
}

// All walks the plan's tiles in execution order: column group by
// column group, each group's K bands in order. It steps (group, band)
// counters rather than dividing the tile index: the walk is the inner
// loop of every tiled replay.
func (p *Plan) All() iter.Seq2[int, Tile] {
	return func(yield func(int, Tile) bool) {
		n, k := 0, 0
		s := p.shapeOf(0, 0)
		for i := 0; i < p.Tiles; i++ {
			t := p.shape[s]
			if k++; k == p.bands {
				n, k = n+1, 0
			}
			next := s
			if i < p.Tiles-1 {
				next = p.shapeOf(n, k)
				t.Stall = p.stall[s][next]
			}
			if !yield(i, t) {
				return
			}
			s = next
		}
	}
}

// Slots is the number of stream-buffer slots the pipeline recurrence
// needs: Depth+1, but never more than Tiles. A slot index at or past
// Tiles is never reused, so the clamp changes no result, and a huge
// Depth neither overflows Depth+1 nor allocates a slot per unit of
// depth.
func (p *Plan) Slots() int {
	if p.Depth >= p.Tiles {
		return p.Tiles
	}
	return p.Depth + 1
}

// resolveTiling returns the effective tiling: t itself when set, else
// the largest tile that fits one stream-buffer slot.
func resolveTiling(ch Channel, g GEMM, t Tiling) Tiling {
	if !t.Zero() {
		return t
	}
	return AutoTiling(ch, g)
}

// AutoTiling returns the default tile shape for a GEMM: start from the
// whole K×N matrix and repeatedly halve the larger dimension until the
// tile fits one stream-buffer slot. No overlap, minimal setups — the
// baseline the autotuner must beat.
func AutoTiling(ch Channel, g GEMM) Tiling {
	tk, tn := g.K, g.N
	wb := int64(g.WeightElemBytes)
	for int64(tk)*int64(tn)*wb > ch.SlotBytes {
		if tk >= tn && tk > 1 {
			tk = (tk + 1) / 2
		} else if tn > 1 {
			tn = (tn + 1) / 2
		} else {
			break
		}
	}
	return Tiling{K: tk, N: tn}
}

// PlanGEMM prices the tile schedule of one GEMM under the channel.
// The zero tiling auto-sizes; an explicit tiling whose tile exceeds
// the stream-buffer slot is an error.
func PlanGEMM(ch Channel, g GEMM, t Tiling) (*Plan, error) {
	if g.M <= 0 || g.K <= 0 || g.N <= 0 {
		return nil, fmt.Errorf("memsim: GEMM shape %dx%dx%d", g.M, g.K, g.N)
	}
	if ch.BytesPerCycle <= 0 || ch.Banks < 1 || ch.Depth < 1 || ch.SlotBytes <= 0 {
		return nil, fmt.Errorf("memsim: channel not configured (bandwidth %g, depth %d, banks %d, slot %d)",
			ch.BytesPerCycle, ch.Depth, ch.Banks, ch.SlotBytes)
	}
	t = resolveTiling(ch, g, t)
	tk, tn := t.K, t.N
	if tk <= 0 || tn <= 0 {
		return nil, fmt.Errorf("memsim: tiling %s must have positive dims", t)
	}
	if tk > g.K {
		tk = g.K
	}
	if tn > g.N {
		tn = g.N
	}
	wb := int64(g.WeightElemBytes)
	ab := int64(g.ActElemBytes)
	if int64(tk)*int64(tn)*wb > ch.SlotBytes {
		return nil, fmt.Errorf("memsim: tile %dx%d (%d B) exceeds stream-buffer slot (%d B)",
			tk, tn, int64(tk)*int64(tn)*wb, ch.SlotBytes)
	}

	nK := (g.K + tk - 1) / tk
	nN := (g.N + tn - 1) / tn
	p := &Plan{
		Tiling:      Tiling{K: tk, N: tn},
		Tiles:       nK * nN,
		ActPasses:   nN,
		Depth:       ch.Depth,
		Banks:       ch.Banks,
		WeightBytes: int64(g.K) * int64(g.N) * wb,
		bands:       nK,
	}

	total := float64(g.K) * float64(g.N)
	for s := range p.shape {
		tkI, tnI := tk, tn
		if s&lastBand != 0 {
			tkI = g.K - (nK-1)*tk
		}
		if s&lastGroup != 0 {
			tnI = g.N - (nN-1)*tn
		}
		wBytes := int64(tkI) * int64(tnI) * wb
		actIn := int64(g.M) * int64(tkI) * ab
		var actOut int64
		if s&lastBand != 0 {
			// The column group's accumulators are complete: write
			// the M×tnI output slice back.
			actOut = int64(g.M) * int64(tnI) * ab
		}
		l2l1 := wBytes + actIn + actOut
		p.shape[s] = Tile{
			Fetch:     ch.TransferCycles(wBytes),
			DMA:       kernels.DMATime(l2l1, ch.L2BytesPerCycle, ch.L2SetupCycles, ch.L1TileBytes),
			Comp:      g.ComputeCycles * float64(tkI) * float64(tnI) / total,
			L2L1Bytes: l2l1,
		}
	}
	for s, t := range p.shape {
		work := t.DMA + t.Comp
		for n, u := range p.shape {
			if next := u.Fetch; next < work {
				p.stall[s][n] = next / float64(ch.Banks)
			} else {
				p.stall[s][n] = work / float64(ch.Banks)
			}
		}
	}
	return p, nil
}

// stackSlots is how many stream-buffer slots Makespan keeps on the
// stack; a deeper prefetch engine allocates its slot ring.
const stackSlots = 8

// Makespan evaluates the pipeline recurrence in closed form: with
// slots = Depth+1 stream-buffer slots, tile i's fetch may start once
// the channel is free AND slot i mod slots has been drained by tile
// i-slots's compute; tile i's work (DMA + compute + stall) starts when
// its fetch has landed and the previous tile's work is done.
//
//	fd[i] = max(fd[i-1], cd[i-slots]) + Fetch[i]
//	cd[i] = max(cd[i-1], fd[i]) + DMA[i] + Comp[i] + Stall[i]
//
// The performance simulator replays the same schedule on its chip
// devices (io = channel, dma+cluster = work) and lands on this exact
// value — pinned by a test — so plan makespans double as an exact
// additive predictor for the tiling autotuner.
func (p *Plan) Makespan() float64 {
	// ring[j] holds the drain time of slot j's latest tile. When every
	// tile gets a fresh slot, each drain time read is the initial zero
	// and no ring is needed.
	slots := p.Slots()
	var buf [stackSlots]float64
	var ring []float64
	if slots < p.Tiles {
		if slots <= len(buf) {
			ring = buf[:slots]
		} else {
			ring = make([]float64, slots)
		}
	}
	var fdPrev, cdPrev, drained float64
	slot := 0
	for _, t := range p.All() {
		if ring != nil {
			drained = ring[slot]
		}
		fd := fdPrev
		if drained > fd {
			fd = drained
		}
		fd += t.Fetch
		cs := cdPrev
		if fd > cs {
			cs = fd
		}
		cd := cs + t.DMA + t.Comp + t.Stall
		fdPrev, cdPrev = fd, cd
		if ring != nil {
			ring[slot] = cd
			if slot++; slot == slots {
				slot = 0
			}
		}
	}
	return cdPrev
}

// minTileDim is the smallest tile dimension CandidateTilings descends
// to: below ~32 elements per axis the per-tile setup costs dominate
// any conceivable overlap win and the candidate grid just bloats.
const minTileDim = 32

// halvings returns d, ceil(d/2), ceil(d/4), ... down to minTileDim
// (always including d itself, even when d < minTileDim).
func halvings(d int) []int {
	var out []int
	for v := d; ; v = (v + 1) / 2 {
		out = append(out, v)
		if v <= minTileDim || v == 1 {
			break
		}
	}
	return out
}

// CandidateTilings enumerates the tiling candidates of a GEMM: the
// cross product of halving sequences of K and N, filtered to tiles
// that fit one stream-buffer slot, deduplicated, in deterministic
// (K-major descending) order. The auto tiling is always present —
// it is the largest fitting member of the grid.
func CandidateTilings(ch Channel, g GEMM) []Tiling {
	wb := int64(g.WeightElemBytes)
	seen := make(map[Tiling]bool)
	var out []Tiling
	for _, tk := range halvings(g.K) {
		for _, tn := range halvings(g.N) {
			if int64(tk)*int64(tn)*wb > ch.SlotBytes {
				continue
			}
			t := Tiling{K: tk, N: tn}
			if seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
