// Package partition implements the paper's contribution: the
// tensor-parallel partitioning of transformer blocks across chips.
//
// WQ, WK and WV are split along the attention-head dimension so each
// chip owns complete heads; WO is split along its rows to match. The
// FC matrices W1 (and W3) are split along the intermediate dimension F
// and W2 along its rows. No weight is replicated, every chip produces
// a partial S×E output for both the MHSA and the FC stage, and the
// block needs exactly two synchronizations (hierarchical all-reduces).
//
// Two baselines from the paper's related-work comparison (Table I) are
// implemented for quantitative comparison: weight-replicated
// sequence-splitting (edge CPU works) and layer-pipeline parallelism
// (PipeEdge/Hermes).
package partition

import (
	"fmt"

	"mcudist/internal/model"
)

// Strategy selects the distribution scheme.
type Strategy int

const (
	// TensorParallel is the paper's scheme: head-split MHSA, F-split
	// FC, no replication, two syncs per block.
	TensorParallel Strategy = iota
	// Replicated duplicates all weights on every chip and splits the
	// input sequence across chips (Hu & Li style). Off-chip reliance
	// persists and single-token workloads cannot parallelize.
	Replicated
	// Pipeline assigns contiguous block ranges to chips
	// (PipeEdge/Hermes style). Per-chip memory shrinks, but a single
	// request occupies one stage at a time.
	Pipeline
)

func (s Strategy) String() string {
	switch s {
	case TensorParallel:
		return "tensor-parallel"
	case Replicated:
		return "replicated"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Range is a half-open [Lo, Hi) slice of a dimension.
type Range struct{ Lo, Hi int }

// Len returns the width of the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Plan is the placement of one model onto N chips.
type Plan struct {
	Strategy Strategy
	Chips    int
	Config   model.Config

	// Heads[i] is the query-head range owned by chip i
	// (TensorParallel).
	Heads []Range
	// KVSlice[i] is the key/value-head range owned by chip i; equal
	// to Heads without GQA, and aligned to query groups with it.
	KVSlice []Range
	// FSlice[i] is the intermediate-dimension range of chip i
	// (TensorParallel).
	FSlice []Range
	// Blocks[i] is the block range owned by chip i (Pipeline); for
	// other strategies every chip participates in every block.
	Blocks []Range
}

// evenRanges splits size into n contiguous ranges differing by at most
// one element; the first (size mod n) ranges get the extra element.
func evenRanges(size, n int) []Range {
	out := make([]Range, n)
	base := size / n
	rem := size % n
	lo := 0
	for i := 0; i < n; i++ {
		w := base
		if i < rem {
			w++
		}
		out[i] = Range{Lo: lo, Hi: lo + w}
		lo += w
	}
	return out
}

// NewTensorParallel builds the paper's partitioning of cfg across n
// chips. Each chip must receive at least one attention head and one
// intermediate column. With grouped-query attention the split happens
// along KV heads (each chip owns whole query groups), so the KV cache
// stays chip-local and nothing is replicated; this caps the chip
// count at the KV head count.
func NewTensorParallel(cfg model.Config, n int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("partition: chip count %d must be positive", n)
	}
	if n > cfg.KVHeadCount() {
		if cfg.KVHeadCount() < cfg.H {
			return nil, fmt.Errorf("partition: %d chips exceed %d KV heads (GQA split is per KV group)", n, cfg.KVHeadCount())
		}
		return nil, fmt.Errorf("partition: %d chips exceed %d attention heads", n, cfg.H)
	}
	if n > cfg.F {
		return nil, fmt.Errorf("partition: %d chips exceed intermediate dimension %d", n, cfg.F)
	}
	kv := evenRanges(cfg.KVHeadCount(), n)
	heads := make([]Range, n)
	group := cfg.QueryGroupSize()
	for i, r := range kv {
		heads[i] = Range{Lo: r.Lo * group, Hi: r.Hi * group}
	}
	p := &Plan{
		Strategy: TensorParallel,
		Chips:    n,
		Config:   cfg,
		Heads:    heads,
		KVSlice:  kv,
		FSlice:   evenRanges(cfg.F, n),
		Blocks:   fullBlocks(cfg.L, n),
	}
	return p, nil
}

// NewReplicated builds the weight-replicated sequence-split baseline.
func NewReplicated(cfg model.Config, n int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("partition: chip count %d must be positive", n)
	}
	return &Plan{
		Strategy: Replicated,
		Chips:    n,
		Config:   cfg,
		Blocks:   fullBlocks(cfg.L, n),
	}, nil
}

// NewPipeline builds the layer-pipeline baseline: contiguous block
// ranges per chip.
func NewPipeline(cfg model.Config, n int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("partition: chip count %d must be positive", n)
	}
	if n > cfg.L {
		return nil, fmt.Errorf("partition: %d chips exceed %d blocks", n, cfg.L)
	}
	return &Plan{
		Strategy: Pipeline,
		Chips:    n,
		Config:   cfg,
		Blocks:   evenRanges(cfg.L, n),
	}, nil
}

func fullBlocks(l, n int) []Range {
	out := make([]Range, n)
	for i := range out {
		out[i] = Range{Lo: 0, Hi: l}
	}
	return out
}

// PSlice returns the projection width owned by chip i (its heads ×
// head dim). Full P for non-tensor-parallel strategies.
func (p *Plan) PSlice(chip int) int {
	if p.Strategy != TensorParallel {
		return p.Config.P
	}
	return p.Heads[chip].Len() * p.Config.HeadDim()
}

// PRange returns the column range of Q (and row range of WO) owned by
// chip i.
func (p *Plan) PRange(chip int) Range {
	if p.Strategy != TensorParallel {
		return Range{Lo: 0, Hi: p.Config.P}
	}
	hd := p.Config.HeadDim()
	return Range{Lo: p.Heads[chip].Lo * hd, Hi: p.Heads[chip].Hi * hd}
}

// KVRange returns the column range of K/V owned by chip i.
func (p *Plan) KVRange(chip int) Range {
	if p.Strategy != TensorParallel {
		return Range{Lo: 0, Hi: p.Config.KVDim()}
	}
	hd := p.Config.HeadDim()
	return Range{Lo: p.KVSlice[chip].Lo * hd, Hi: p.KVSlice[chip].Hi * hd}
}

// KVWidth returns the K/V projection width owned by chip i.
func (p *Plan) KVWidth(chip int) int {
	return p.KVRange(chip).Len()
}

// FWidth returns the intermediate-dimension width owned by chip i.
func (p *Plan) FWidth(chip int) int {
	if p.Strategy != TensorParallel {
		return p.Config.F
	}
	return p.FSlice[chip].Len()
}

// BlockWeightBytesOnChip returns the bytes of one block's weights
// resident on chip i (zero when the chip does not hold that block's
// weights, which only happens under Pipeline).
func (p *Plan) BlockWeightBytesOnChip(chip int) int {
	cfg := p.Config
	switch p.Strategy {
	case TensorParallel:
		attn := 2*cfg.E*p.PSlice(chip) + 2*cfg.E*p.KVWidth(chip)
		ffn := cfg.FFNMatrices() * cfg.E * p.FWidth(chip)
		return (attn + ffn) * cfg.WeightBytes
	case Replicated:
		return cfg.BlockWeightBytes()
	case Pipeline:
		return cfg.BlockWeightBytes()
	default:
		panic("partition: unknown strategy")
	}
}

// BlocksOnChip returns how many blocks chip i holds weights for.
func (p *Plan) BlocksOnChip(chip int) int {
	return p.Blocks[chip].Len()
}

// TotalWeightBytes returns the summed weight bytes across all chips;
// for the paper's scheme this equals the model size exactly (no
// replication).
func (p *Plan) TotalWeightBytes() int {
	total := 0
	for c := 0; c < p.Chips; c++ {
		total += p.BlockWeightBytesOnChip(c) * p.BlocksOnChip(c)
	}
	return total
}

// ReplicationFactor is total stored weights / model weights.
func (p *Plan) ReplicationFactor() float64 {
	return float64(p.TotalWeightBytes()) / float64(p.Config.TotalWeightBytes())
}

// KVBytesPerBlockOnChip returns the KV-cache bytes chip i stores per
// block it participates in, at context length s. Tensor-parallel chips
// cache only their own heads; replicated chips cache everything;
// pipeline chips cache full width for their own blocks.
func (p *Plan) KVBytesPerBlockOnChip(chip, s int) int {
	if p.Strategy == TensorParallel {
		return 2 * s * p.KVWidth(chip) * p.Config.ActBytes
	}
	return p.Config.KVBytesPerBlock(s)
}

// ReducePayloadBytes is the per-hop payload of the partial-output
// all-reduce for sequence length s: an S×E tile of partial sums in the
// configured exchange precision (int8 as deployed, int32 for the exact
// ablation).
func (p *Plan) ReducePayloadBytes(s int) int64 {
	return int64(s) * int64(p.Config.E) * int64(p.Config.ReduceBytes)
}

// BcastPayloadBytes is the per-hop payload of the result broadcast:
// an S×E tile of int8 activations.
func (p *Plan) BcastPayloadBytes(s int) int64 {
	return int64(s) * int64(p.Config.E) * int64(p.Config.ActBytes)
}

// SeqSplit returns the sequence rows chip i processes for sequence
// length s under the Replicated strategy. With fewer rows than chips,
// trailing chips receive empty ranges (they idle — the baseline's
// single-token weakness).
func (p *Plan) SeqSplit(s int) []Range {
	if p.Strategy != Replicated {
		panic("partition: SeqSplit is a Replicated-strategy query")
	}
	return evenRanges(s, p.Chips)
}

// Validate checks the plan's structural invariants.
func (p *Plan) Validate() error {
	if p.Chips <= 0 {
		return fmt.Errorf("partition: no chips")
	}
	switch p.Strategy {
	case TensorParallel:
		if err := coverExactly(p.Heads, p.Config.H, "heads"); err != nil {
			return err
		}
		if err := coverExactly(p.KVSlice, p.Config.KVHeadCount(), "kv heads"); err != nil {
			return err
		}
		if err := coverExactly(p.FSlice, p.Config.F, "intermediate"); err != nil {
			return err
		}
		group := p.Config.QueryGroupSize()
		for c := 0; c < p.Chips; c++ {
			if p.Heads[c].Len() == 0 {
				return fmt.Errorf("partition: chip %d owns no heads", c)
			}
			if p.FSlice[c].Len() == 0 {
				return fmt.Errorf("partition: chip %d owns no intermediate columns", c)
			}
			if p.Heads[c].Lo != p.KVSlice[c].Lo*group || p.Heads[c].Hi != p.KVSlice[c].Hi*group {
				return fmt.Errorf("partition: chip %d query heads %v misaligned with KV heads %v", c, p.Heads[c], p.KVSlice[c])
			}
		}
	case Pipeline:
		if err := coverExactly(p.Blocks, p.Config.L, "blocks"); err != nil {
			return err
		}
	case Replicated:
		// nothing structural to check
	default:
		return fmt.Errorf("partition: unknown strategy %d", p.Strategy)
	}
	return nil
}

func coverExactly(rs []Range, size int, what string) error {
	lo := 0
	for i, r := range rs {
		if r.Lo != lo {
			return fmt.Errorf("partition: %s range %d starts at %d, want %d (gap or overlap)", what, i, r.Lo, lo)
		}
		if r.Hi < r.Lo {
			return fmt.Errorf("partition: %s range %d inverted", what, i)
		}
		lo = r.Hi
	}
	if lo != size {
		return fmt.Errorf("partition: %s ranges cover %d of %d", what, lo, size)
	}
	return nil
}
