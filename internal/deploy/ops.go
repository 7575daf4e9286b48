package deploy

import (
	"mcudist/internal/hw"
	"mcudist/internal/kernels"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// elem converts the model's element sizes for the kernel models.
func elem(cfg model.Config) kernels.Elem {
	return kernels.Elem{Weight: cfg.WeightBytes, Act: cfg.ActBytes, Acc: cfg.AccBytes, Reduce: cfg.ReduceBytes}
}

// mhsaOps returns the compute sequence of one chip's partial MHSA for
// one block: QKV projections over the chip's head slice (every head
// on a pipeline plan), RoPE, KV append, per-head attention, and the
// partial output projection (plus requantization of the partial when
// partials are exchanged in int8).
func mhsaOps(p *partition.Plan, chip int, mode model.Mode, s, batch int, hwp hw.Params) []kernels.Cost {
	cfg := p.Config
	e := elem(cfg)
	sq := queryRows(mode, s, batch)
	ps := p.PSlice(chip)
	kvw := p.KVWidth(chip)
	hd := cfg.HeadDim()
	heads := ps / hd

	var ops []kernels.Cost
	// Q projection over the chip's query heads, K/V over its KV
	// heads (narrower under GQA).
	ops = append(ops, kernels.Linear(hwp, sq, cfg.E, ps, e))
	ops = append(ops, kernels.Linear(hwp, sq, cfg.E, kvw, e))
	ops = append(ops, kernels.Linear(hwp, sq, cfg.E, kvw, e))
	if cfg.RoPE {
		ops = append(ops, kernels.RoPE(hwp, sq, ps, e), kernels.RoPE(hwp, sq, kvw, e))
	}
	if cfg.Arch == model.Decoder {
		ops = append(ops, kernels.KVAppend(hwp, sq, kvw, e))
	}
	// Per-head attention over context length s.
	for h := 0; h < heads; h++ {
		ops = append(ops,
			kernels.MatMulAct(hwp, sq, hd, s, e), // scores = Q·Kᵀ
			kernels.Softmax(hwp, sq, s, e),
			kernels.MatMulAct(hwp, sq, s, hd, e), // context = A·V
		)
	}
	// Partial output projection: sq×PSlice · PSlice×E.
	ops = append(ops, kernels.Linear(hwp, sq, ps, cfg.E, e))
	if cfg.ReduceBytes < cfg.AccBytes {
		ops = append(ops, kernels.Requant(hwp, sq, cfg.E, e))
	}
	return ops
}

// fcOps returns one chip's partial FC sequence: the F-sliced first
// linear (plus gate for gated FFNs; all of F on a pipeline plan),
// activation, and the partial second linear.
func fcOps(p *partition.Plan, chip int, mode model.Mode, s, batch int, hwp hw.Params) []kernels.Cost {
	cfg := p.Config
	e := elem(cfg)
	sq := queryRows(mode, s, batch)
	fw := p.FWidth(chip)

	var ops []kernels.Cost
	ops = append(ops, kernels.Linear(hwp, sq, cfg.E, fw, e))
	if cfg.FFN == model.FFNGated {
		ops = append(ops, kernels.Linear(hwp, sq, cfg.E, fw, e))
		// SiLU + elementwise gate product.
		ops = append(ops, kernels.GELU(hwp, sq, fw, e), kernels.ResidualAdd(hwp, sq, fw, e))
	} else {
		ops = append(ops, kernels.GELU(hwp, sq, fw, e))
	}
	ops = append(ops, kernels.Linear(hwp, sq, fw, cfg.E, e))
	if cfg.ReduceBytes < cfg.AccBytes {
		ops = append(ops, kernels.Requant(hwp, sq, cfg.E, e))
	}
	return markFFN(ops)
}

// markFFN tags a kernel sequence as the feed-forward layer family so
// the memory-hierarchy planner assigns it the FFN tiling. In place;
// returns ops for call-site chaining.
func markFFN(ops []kernels.Cost) []kernels.Cost {
	for i := range ops {
		ops[i].FFN = true
	}
	return ops
}

// rootSyncOps is the serial work of the root after the reduce: merge
// the residual stream, normalize, and requantize for the broadcast.
func rootSyncOps(cfg model.Config, mode model.Mode, s, batch int, hwp hw.Params) []kernels.Cost {
	sq := queryRows(mode, s, batch)
	e := elem(cfg)
	return []kernels.Cost{
		kernels.ResidualAdd(hwp, sq, cfg.E, e),
		kernels.Norm(hwp, sq, cfg.E, e),
		kernels.Requant(hwp, sq, cfg.E, e),
	}
}

// replicatedChipOps models the weight-replicated baseline: the chip
// processes its sequence rows against the full model (all heads, full
// F). rows == 0 means the chip idles.
func replicatedChipOps(p *partition.Plan, rows int, s int, hwp hw.Params) []kernels.Cost {
	if rows == 0 {
		return nil
	}
	cfg := p.Config
	e := elem(cfg)
	var ops []kernels.Cost
	ops = append(ops, kernels.Linear(hwp, rows, cfg.E, cfg.P, e))
	ops = append(ops, kernels.Linear(hwp, rows, cfg.E, cfg.KVDim(), e))
	ops = append(ops, kernels.Linear(hwp, rows, cfg.E, cfg.KVDim(), e))
	if cfg.RoPE {
		ops = append(ops, kernels.RoPE(hwp, rows, cfg.P, e), kernels.RoPE(hwp, rows, cfg.KVDim(), e))
	}
	hd := cfg.HeadDim()
	for h := 0; h < cfg.H; h++ {
		ops = append(ops,
			kernels.MatMulAct(hwp, rows, hd, s, e),
			kernels.Softmax(hwp, rows, s, e),
			kernels.MatMulAct(hwp, rows, s, hd, e),
		)
	}
	ops = append(ops, kernels.Linear(hwp, rows, cfg.P, cfg.E, e))
	ops = append(ops, kernels.ResidualAdd(hwp, rows, cfg.E, e), kernels.Norm(hwp, rows, cfg.E, e))
	// Everything from here on is the feed-forward sublayer: the fused
	// per-chip list still carries the family split for the
	// memory-hierarchy tiler.
	var ffn []kernels.Cost
	ffn = append(ffn, kernels.Linear(hwp, rows, cfg.E, cfg.F, e))
	if cfg.FFN == model.FFNGated {
		ffn = append(ffn, kernels.Linear(hwp, rows, cfg.E, cfg.F, e))
		ffn = append(ffn, kernels.GELU(hwp, rows, cfg.F, e), kernels.ResidualAdd(hwp, rows, cfg.F, e))
	} else {
		ffn = append(ffn, kernels.GELU(hwp, rows, cfg.F, e))
	}
	ffn = append(ffn, kernels.Linear(hwp, rows, cfg.F, cfg.E, e))
	ffn = append(ffn, kernels.ResidualAdd(hwp, rows, cfg.E, e), kernels.Norm(hwp, rows, cfg.E, e))
	return append(ops, markFFN(ffn)...)
}
