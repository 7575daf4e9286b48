package deploy

import (
	"fmt"
	"math"

	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// footprint itemizes one chip's L2 budget for a deployment: the sum
// the tier chooser holds against the usable L2.
type footprint struct {
	// weights is resident weight storage (× 2 when double-buffered).
	weights int
	// kv is the resident KV-cache storage (decoders).
	kv int
	// activations is peak activation storage for one block.
	activations int
	// comm is staging for inbound/outbound partial tensors.
	comm int
}

// Total returns the summed footprint, saturating at math.MaxInt
// instead of wrapping.
func (f footprint) Total() int {
	total := 0
	for _, b := range [...]int{f.weights, f.kv, f.activations, f.comm} {
		if b > math.MaxInt-total {
			return math.MaxInt
		}
		total += b
	}
	return total
}

// FitsIn reports whether the footprint fits the given budget.
func (f footprint) FitsIn(budget int) bool { return f.Total() <= budget }

func (f footprint) String() string {
	return fmt.Sprintf("weights=%d kv=%d act=%d comm=%d total=%d",
		f.weights, f.kv, f.activations, f.comm, f.Total())
}

// DefaultCommTileBytes bounds the L2 staging for inbound/outbound
// partial tensors: larger payloads are exchanged in tiles of this
// size, so staging does not grow with sequence length. The simulator
// pipelines every collective over tiles of this size.
const DefaultCommTileBytes = 64 * 1024

// queryRows returns the number of token rows processed per forward:
// the decode micro-batch width in autoregressive mode (one row per
// concurrent session, 1 for the paper's single-session step), S in
// prompt mode.
func queryRows(mode model.Mode, s, batch int) int {
	if mode == model.Autoregressive {
		if batch > 1 {
			return batch
		}
		return 1
	}
	return s
}

// activationBytes estimates the peak per-block activation storage of
// one chip under the plan: the broadcast input, the chip's Q/K/V
// slices, the larger of one head's score matrix and the FFN
// intermediate slice, the partial output staging, and the block
// output.
func activationBytes(p *partition.Plan, chip int, mode model.Mode, s, batch int) int {
	cfg := p.Config
	sq := queryRows(mode, s, batch)
	x := sq * cfg.E * cfg.ActBytes
	qkv := sq * (p.PSlice(chip) + 2*p.KVWidth(chip)) * cfg.ActBytes
	scores := sq * s * cfg.ActBytes
	ffnInter := sq * p.FWidth(chip) * cfg.ActBytes
	inner := scores
	if ffnInter > inner {
		inner = ffnInter
	}
	partial := sq * cfg.E * cfg.ReduceBytes
	out := sq * cfg.E * cfg.ActBytes
	return x + qkv + inner + partial + out
}

// commStagingBytes is the bounded L2 staging for collective payloads.
func commStagingBytes(p *partition.Plan, mode model.Mode, s, batch int) int {
	sq := queryRows(mode, s, batch)
	staging := 0
	for _, payload := range []int64{p.ReducePayloadBytes(sq), p.BcastPayloadBytes(sq)} {
		staging += int(min(payload, DefaultCommTileBytes))
	}
	return staging
}

// kvResidentBytes is the chip's resident KV-cache requirement: its
// head slices for every block it participates in (decoders only),
// once per concurrently batched session — KV pressure is the honest
// cost of continuous batching and pushes tier selection down as the
// micro-batch widens.
func kvResidentBytes(p *partition.Plan, chip int, s, batch int) int {
	if p.Config.Arch != model.Decoder {
		return 0
	}
	sessions := 1
	if batch > 1 {
		sessions = batch
	}
	return p.KVBytesPerBlockOnChip(chip, s) * p.BlocksOnChip(chip) * sessions
}

// footprintAt builds the L2 footprint of a chip under a candidate
// weight-residency multiple: weightBlocks = how many blocks' weight
// slices are held simultaneously (0 = streamed tile only).
func footprintAt(p *partition.Plan, chip int, mode model.Mode, s, batch, weightBlocks int, hwp hw.Params) footprint {
	wb := p.BlockWeightBytesOnChip(chip) * weightBlocks
	if weightBlocks == 0 {
		// Streaming needs a double-buffered weight tile in L2 — or,
		// under the hierarchical memory model, the prefetch engine's
		// stream buffer of PrefetchDepth+1 tile slots.
		wb = 2 * streamTileBytes(hwp)
		if hwp.Mem.Enabled() {
			wb = streamBufferBytes(p, hwp)
		}
	}
	return footprint{
		weights:     wb,
		kv:          kvResidentBytes(p, chip, s, batch),
		activations: activationBytes(p, chip, mode, s, batch),
		comm:        commStagingBytes(p, mode, s, batch),
	}
}

// streamTileBytes is the L2 tile used when weights stream from L3.
func streamTileBytes(hwp hw.Params) int {
	t := hwp.Chip.L1Bytes / 2
	if t <= 0 {
		t = 4096
	}
	return t
}

// streamBufferBytes sizes the hierarchical model's L2 stream buffer:
// PrefetchDepth+1 slots (one active tile, the rest in flight) of the
// largest tile either layer family pins — the full slot when a family
// auto-sizes. Pinned tiles larger than a slot are capped here; the
// planner rejects them with a real error when it builds the plans. A
// buffer past math.MaxInt bytes saturates there.
func streamBufferBytes(p *partition.Plan, hwp hw.Params) int {
	slot := streamTileBytes(hwp)
	tile := 0
	for _, ffn := range []bool{false, true} {
		n, k := hwp.Mem.TileFor(ffn)
		fam := slot
		if n > 0 && k > 0 {
			if fam = n * k * p.Config.WeightBytes; fam > slot {
				fam = slot
			}
		}
		if fam > tile {
			tile = fam
		}
	}
	if tile > 0 && hwp.Mem.PrefetchDepth >= math.MaxInt/tile {
		return math.MaxInt
	}
	return (hwp.Mem.PrefetchDepth + 1) * tile
}

// chooseTier picks the best placement the chip's L2 budget allows.
func chooseTier(p *partition.Plan, chip int, mode model.Mode, s, batch int, hwp hw.Params) (Tier, footprint) {
	budget := hwp.UsableL2Bytes()
	blocks := p.BlocksOnChip(chip)
	if fp := footprintAt(p, chip, mode, s, batch, blocks, hwp); fp.FitsIn(budget) {
		return TierResidentAll, fp
	}
	if fp := footprintAt(p, chip, mode, s, batch, 2, hwp); blocks > 1 && fp.FitsIn(budget) {
		return TierDoubleBuffered, fp
	}
	if fp := footprintAt(p, chip, mode, s, batch, 1, hwp); fp.FitsIn(budget) {
		return TierResidentSingle, fp
	}
	return TierStreamed, footprintAt(p, chip, mode, s, batch, 0, hwp)
}
