// Package numeric executes the partitioned transformer numerically,
// chip by chip, including the hierarchical reduce/broadcast dataflow —
// and proves that the distributed computation reproduces the reference
// single-device forward pass. This is the functional-correctness
// counterpart to the performance simulation: perfsim shows the scheme
// is fast, numeric shows it is right.
//
// Two paths are provided: a float32 executor (matches the reference up
// to summation-order rounding) and a quantized int8 executor whose
// int32 partial-sum reduction is bit-exact against the single-chip
// quantized reference.
package numeric

import (
	"fmt"
	"math"

	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/tensor"
)

// ChipBlock holds one chip's weight slices for one transformer block
// under the tensor-parallel plan.
type ChipBlock struct {
	WQ, WK, WV *tensor.Mat // E × PSlice
	WO         *tensor.Mat // PSlice × E
	W1, W2     *tensor.Mat // E × FSlice, FSlice × E
	W3         *tensor.Mat // E × FSlice (gated FFN)
	BQ, BK, BV []float32   // PSlice
	B1         []float32   // FSlice
}

// SliceBlock cuts the chip's share out of full block weights. Q and
// the output projection slice along query heads; K/V slice along KV
// heads (narrower under GQA).
func SliceBlock(bw *model.BlockWeights, p *partition.Plan, chip int) *ChipBlock {
	pr := p.PRange(chip)
	kr := p.KVRange(chip)
	fr := partition.Range{Lo: 0, Hi: p.Config.F}
	if p.Strategy == partition.TensorParallel {
		fr = p.FSlice[chip]
	}
	cb := &ChipBlock{
		WQ: bw.WQ.SliceCols(pr.Lo, pr.Hi),
		WK: bw.WK.SliceCols(kr.Lo, kr.Hi),
		WV: bw.WV.SliceCols(kr.Lo, kr.Hi),
		WO: bw.WO.SliceRows(pr.Lo, pr.Hi),
		W1: bw.W1.SliceCols(fr.Lo, fr.Hi),
		W2: bw.W2.SliceRows(fr.Lo, fr.Hi),
	}
	if bw.W3 != nil {
		cb.W3 = bw.W3.SliceCols(fr.Lo, fr.Hi)
	}
	if bw.HasBiases() {
		cb.BQ = bw.BQ[pr.Lo:pr.Hi]
		cb.BK = bw.BK[kr.Lo:kr.Hi]
		cb.BV = bw.BV[kr.Lo:kr.Hi]
		cb.B1 = bw.B1[fr.Lo:fr.Hi]
	}
	return cb
}

// Stats counts the communication the distributed execution performed,
// for cross-checking against the performance model.
type Stats struct {
	Reduces    int
	Broadcasts int
	// ReduceElems / BcastElems count scalar elements moved per hop,
	// summed over hops.
	ReduceElems int64
	BcastElems  int64
}

// Executor runs the float32 distributed forward pass.
type Executor struct {
	cfg   model.Config
	plan  *partition.Plan
	full  *model.Weights
	tree  *interconnect.Tree
	chips [][]*ChipBlock // [chip][block]
	kvK   [][]*tensor.Mat
	kvV   [][]*tensor.Mat
	pos   int

	Stats Stats
}

// NewExecutor distributes the weights according to the plan.
func NewExecutor(w *model.Weights, p *partition.Plan) (*Executor, error) {
	if p.Strategy != partition.TensorParallel {
		return nil, fmt.Errorf("numeric: executor supports the tensor-parallel strategy, got %v", p.Strategy)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tree, err := interconnect.BuildTree(p.Chips, 4)
	if err != nil {
		return nil, err
	}
	e := &Executor{
		cfg:   w.Config,
		plan:  p,
		full:  w,
		tree:  tree,
		chips: make([][]*ChipBlock, p.Chips),
		kvK:   make([][]*tensor.Mat, p.Chips),
		kvV:   make([][]*tensor.Mat, p.Chips),
	}
	for c := 0; c < p.Chips; c++ {
		e.chips[c] = make([]*ChipBlock, w.Config.L)
		e.kvK[c] = make([]*tensor.Mat, w.Config.L)
		e.kvV[c] = make([]*tensor.Mat, w.Config.L)
		for b := 0; b < w.Config.L; b++ {
			e.chips[c][b] = SliceBlock(w.Blocks[b], p, c)
			e.kvK[c][b] = tensor.New(0, p.KVWidth(c))
			e.kvV[c][b] = tensor.New(0, p.KVWidth(c))
		}
	}
	return e, nil
}

// CacheLen returns the current distributed KV-cache length.
func (e *Executor) CacheLen() int { return e.pos }

// Forward runs the distributed prompt-mode pass over x (S×E) and
// fills the per-chip KV caches (decoders).
func (e *Executor) Forward(x *tensor.Mat) *tensor.Mat {
	if e.pos != 0 {
		panic("numeric: prompt forward requires empty caches")
	}
	out := e.run(x, 0)
	if e.cfg.Arch == model.Decoder {
		e.pos = x.Rows
	}
	return out
}

// ForwardStep runs one distributed autoregressive step (decoders).
func (e *Executor) ForwardStep(x *tensor.Mat) *tensor.Mat {
	if e.cfg.Arch != model.Decoder {
		panic("numeric: autoregressive mode requires a decoder")
	}
	if x.Rows != 1 {
		panic("numeric: step input must be a single row")
	}
	out := e.run(x, e.pos)
	e.pos++
	return out
}

func (e *Executor) run(x *tensor.Mat, startPos int) *tensor.Mat {
	if x.Cols != e.cfg.E {
		panic(fmt.Sprintf("numeric: input width %d != E %d", x.Cols, e.cfg.E))
	}
	out := x.Clone()
	for b := 0; b < e.cfg.L; b++ {
		out = e.block(b, out, startPos)
	}
	return out
}

// block executes one distributed transformer block: broadcast the
// (normalized) input, compute per-chip partials, reduce, root
// residual+norm, broadcast, per-chip FC partials, reduce, root
// residual+norm — the paper's two synchronizations.
func (e *Executor) block(b int, x *tensor.Mat, startPos int) *tensor.Mat {
	cfg := e.cfg
	bw := e.full.Blocks[b]

	var mhsaIn *tensor.Mat
	if cfg.Arch == model.Decoder {
		mhsaIn = normalize(cfg, x, bw.Norm1Gain, bw.Norm1Bias) // pre-norm
	} else {
		mhsaIn = x // post-norm encoder attends to the raw input
	}
	e.broadcast(mhsaIn)

	partials := make([]*tensor.Mat, e.plan.Chips)
	for c := 0; c < e.plan.Chips; c++ {
		partials[c] = e.chipMHSA(c, b, mhsaIn, startPos)
	}
	attSum := e.reduce(partials)
	if bw.BO != nil {
		addBias(attSum, bw.BO)
	}
	x2 := tensor.Add(x, attSum) // residual merged into the reduce

	var fcIn *tensor.Mat
	if cfg.Arch == model.Decoder {
		fcIn = normalize(cfg, x2, bw.Norm2Gain, bw.Norm2Bias)
	} else {
		x2 = normalize(cfg, x2, bw.Norm1Gain, bw.Norm1Bias) // post-norm
		fcIn = x2
	}
	e.broadcast(fcIn)

	for c := 0; c < e.plan.Chips; c++ {
		partials[c] = e.chipFC(c, b, fcIn)
	}
	fcSum := e.reduce(partials)
	if bw.B2 != nil {
		addBias(fcSum, bw.B2)
	}
	x3 := tensor.Add(x2, fcSum)
	if cfg.Arch == model.Encoder {
		x3 = normalize(cfg, x3, bw.Norm2Gain, bw.Norm2Bias)
	}
	return x3
}

// chipMHSA computes one chip's partial attention output (S×E).
func (e *Executor) chipMHSA(c, b int, h *tensor.Mat, startPos int) *tensor.Mat {
	cfg := e.cfg
	cb := e.chips[c][b]

	q := tensor.MatMul(h, cb.WQ)
	k := tensor.MatMul(h, cb.WK)
	v := tensor.MatMul(h, cb.WV)
	addBias(q, cb.BQ)
	addBias(k, cb.BK)
	addBias(v, cb.BV)
	if cfg.RoPE {
		positions := make([]int, h.Rows)
		for i := range positions {
			positions[i] = startPos + i
		}
		tensor.RoPE(q, cfg.HeadDim(), positions, cfg.RoPETheta)
		tensor.RoPE(k, cfg.HeadDim(), positions, cfg.RoPETheta)
	}

	keys, values := k, v
	if cfg.Arch == model.Decoder {
		e.kvK[c][b] = tensor.ConcatRows(e.kvK[c][b], k)
		e.kvV[c][b] = tensor.ConcatRows(e.kvV[c][b], v)
		keys = e.kvK[c][b]
		values = e.kvV[c][b]
	}

	att := attendHeads(cfg, q, keys, values, startPos, e.plan.Heads[c].Len())
	return tensor.MatMul(att, cb.WO)
}

// chipFC computes one chip's partial FC output (S×E).
func (e *Executor) chipFC(c, b int, h *tensor.Mat) *tensor.Mat {
	cfg := e.cfg
	cb := e.chips[c][b]
	if cfg.FFN == model.FFNGated {
		gate := tensor.SiLU(tensor.MatMul(h, cb.W1))
		up := tensor.MatMul(h, cb.W3)
		return tensor.MatMul(tensor.Mul(gate, up), cb.W2)
	}
	mid := tensor.MatMul(h, cb.W1)
	addBias(mid, cb.B1)
	tensor.GELU(mid)
	return tensor.MatMul(mid, cb.W2)
}

// attendHeads runs softmax attention over `heads` consecutive query
// head slices of q against the matching KV head slices of keys/values
// (with GQA, QueryGroupSize query heads share each KV head; chip
// slices are group-aligned, so local indices map directly).
func attendHeads(cfg model.Config, q, keys, values *tensor.Mat, startPos, heads int) *tensor.Mat {
	hd := cfg.HeadDim()
	group := cfg.QueryGroupSize()
	outs := make([]*tensor.Mat, heads)
	scale := float32(1 / math.Sqrt(float64(hd)))
	for h := 0; h < heads; h++ {
		qh := q.SliceCols(h*hd, (h+1)*hd)
		kv := h / group
		kh := keys.SliceCols(kv*hd, (kv+1)*hd)
		vh := values.SliceCols(kv*hd, (kv+1)*hd)
		scores := tensor.MatMulT(qh, kh).Scale(scale)
		if cfg.Arch == model.Decoder {
			tensor.CausalMaskedSoftmax(scores, startPos)
		} else {
			tensor.Softmax(scores)
		}
		outs[h] = tensor.MatMul(scores, vh)
	}
	return tensor.ConcatCols(outs...)
}

// reduce sums per-chip partials along the tree's reduce order and
// returns the root's accumulated tensor. Addition happens in float32,
// matching what the chips would compute.
func (e *Executor) reduce(partials []*tensor.Mat) *tensor.Mat {
	acc := make([]*tensor.Mat, len(partials))
	for i, p := range partials {
		acc[i] = p.Clone()
	}
	for _, hop := range e.tree.ReduceHops() {
		tensor.AddInPlace(acc[hop.To], acc[hop.From])
		e.Stats.ReduceElems += int64(acc[hop.From].Rows) * int64(acc[hop.From].Cols)
	}
	e.Stats.Reduces++
	return acc[e.tree.Root]
}

// broadcast records the root-to-all distribution of a tensor.
func (e *Executor) broadcast(m *tensor.Mat) {
	for range e.tree.BroadcastHops() {
		e.Stats.BcastElems += int64(m.Rows) * int64(m.Cols)
	}
	e.Stats.Broadcasts++
}

func normalize(cfg model.Config, x *tensor.Mat, gain, bias []float32) *tensor.Mat {
	if cfg.Norm == model.LayerNorm {
		return tensor.LayerNorm(x, gain, bias, cfg.NormEps)
	}
	return tensor.RMSNorm(x, gain, cfg.NormEps)
}

func addBias(m *tensor.Mat, bias []float32) {
	if bias == nil {
		return
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] += bias[i]
		}
	}
}
