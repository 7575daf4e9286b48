// Package numeric executes the partitioned transformer numerically,
// chip by chip, including the hierarchical reduce/broadcast dataflow —
// and proves that the distributed computation reproduces the reference
// single-device forward pass. This is the functional-correctness
// counterpart to the performance simulation: perfsim shows the scheme
// is fast, numeric shows it is right.
//
// One Executor runs the distributed blocks in one of two number
// formats: float32 (NewExecutor) matches the reference up to
// summation-order rounding, and int8 (NewQuantEngine) exchanges int32
// partial sums bit-exact against the single-chip int8 network.
// Calibrate is a float32 run of the same executor on one chip.
package numeric

import (
	"fmt"
	"math"

	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/tensor"
)

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

// A format is the number format an Executor computes in. It decides
// how the root encodes a broadcast, how a chip applies a weight slice,
// and how partials combine along the reduce tree; the block's dataflow
// around those three is the executor's, shared by both formats.
// Encoded inputs, weight slices and partials are the format's own
// types: only the format that made a value reads it.
type format interface {
	// encode puts m on the format's grid at the scale calibrated for
	// point pt of block b: the root's broadcast, or a chip's input to
	// its output projection.
	encode(m *tensor.Mat, pt point, b int) any
	// apply multiplies an encoded x by a weight slice.
	apply(x, w any) any
	// decode returns a product of apply as float32 values.
	decode(p any) *tensor.Mat
	// reduce adds the chips' partials along hops into the root's and
	// returns that sum as float32 values.
	reduce(parts []any, hops []interconnect.Hop, root int, pt point, b int) *tensor.Mat
}

// float32Format computes in float32: a broadcast is the tensor itself,
// a weight slice applies as a float matrix product, and partials add
// in float32, as the chips would.
type float32Format struct{}

func (float32Format) encode(m *tensor.Mat, _ point, _ int) any { return m }

func (float32Format) apply(x, w any) any {
	return tensor.MatMul(x.(*tensor.Mat), w.(*tensor.Mat))
}

func (float32Format) decode(p any) *tensor.Mat { return p.(*tensor.Mat) }

func (float32Format) reduce(parts []any, hops []interconnect.Hop, root int, _ point, _ int) *tensor.Mat {
	for _, hop := range hops {
		tensor.AddInPlace(parts[hop.To].(*tensor.Mat), parts[hop.From].(*tensor.Mat))
	}
	return parts[root].(*tensor.Mat)
}

// chipBlock is one chip's share of one transformer block: weight
// slices in the executor's format, biases in float32.
type chipBlock struct {
	WQ, WK, WV any // E × PSlice, E × KVWidth, E × KVWidth
	WO         any // PSlice × E
	W1, W2     any // E × FSlice, FSlice × E
	W3         any // E × FSlice (gated FFN)
	BQ, BK, BV []float32
	B1         []float32
}

// blockMats is one block's full weight matrices in one number format;
// W3 is unset without a gated FFN.
type blockMats[M any] struct{ WQ, WK, WV, WO, W1, W2, W3 M }

// slicer is a full weight matrix in a number format.
type slicer[M any] interface {
	SliceCols(lo, hi int) M
	SliceRows(lo, hi int) M
}

// sliceBlock cuts chip's share out of one block, and is the one place
// that decides the range of every weight slice: Q and the output
// projection along the chip's query heads, K and V along its KV heads
// (narrower under GQA), the FFN along its intermediate columns, and
// each bias along its matrix. A share that spans a whole matrix is the
// matrix itself, so a one-chip plan copies no weight.
func sliceBlock[M slicer[M]](m blockMats[M], bw *model.BlockWeights, p *partition.Plan, chip int) *chipBlock {
	cfg := p.Config
	pr, kr, fr := p.PRange(chip), p.KVRange(chip), p.FSlice[chip]
	cols := func(w M, r partition.Range, n int) any {
		if r.Lo == 0 && r.Hi == n {
			return w
		}
		return w.SliceCols(r.Lo, r.Hi)
	}
	rows := func(w M, r partition.Range, n int) any {
		if r.Lo == 0 && r.Hi == n {
			return w
		}
		return w.SliceRows(r.Lo, r.Hi)
	}
	cb := &chipBlock{
		WQ: cols(m.WQ, pr, cfg.P),
		WK: cols(m.WK, kr, cfg.KVDim()),
		WV: cols(m.WV, kr, cfg.KVDim()),
		WO: rows(m.WO, pr, cfg.P),
		W1: cols(m.W1, fr, cfg.F),
		W2: rows(m.W2, fr, cfg.F),
		BQ: biasSlice(bw.BQ, pr),
		BK: biasSlice(bw.BK, kr),
		BV: biasSlice(bw.BV, kr),
		B1: biasSlice(bw.B1, fr),
	}
	if cfg.FFN == model.FFNGated {
		cb.W3 = cols(m.W3, fr, cfg.F)
	}
	return cb
}

func biasSlice(v []float32, r partition.Range) []float32 {
	if v == nil {
		return nil
	}
	return v[r.Lo:r.Hi]
}

// Executor runs the distributed forward pass of one model under the
// tensor-parallel plan, in the number format its constructor chose.
type Executor struct {
	cfg    model.Config
	plan   *partition.Plan
	full   *model.Weights // the root's norms and output biases
	tree   *interconnect.Tree
	format format
	chips  [][]*chipBlock // [chip][block]
	kvK    [][]*tensor.Mat
	kvV    [][]*tensor.Mat
	pos    int
	// tap, set only by Calibrate, receives each block's scale at every
	// point where the int8 format quantizes.
	tap *Calibration

	Stats Stats
}

// NewExecutor distributes the weights according to the plan and runs
// them in float32.
func NewExecutor(w *model.Weights, p *partition.Plan) (*Executor, error) {
	return newExecutor(w, p, float32Format{}, func(m *tensor.Mat) *tensor.Mat { return m })
}

// newExecutor distributes w by p to run in format f. enc converts one
// full weight matrix into the format before it is sliced, so every
// chip's slice shares the whole matrix's encoding.
func newExecutor[M slicer[M]](w *model.Weights, p *partition.Plan, f format, enc func(*tensor.Mat) M) (*Executor, error) {
	if p.Strategy != partition.TensorParallel {
		return nil, fmt.Errorf("numeric: executor supports the tensor-parallel strategy, got %v", p.Strategy)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := p.Config
	if err := checkWeights(w, cfg); err != nil {
		return nil, err
	}
	tree, err := interconnect.BuildTree(p.Chips, 4)
	if err != nil {
		return nil, err
	}
	e := &Executor{
		cfg:    cfg,
		plan:   p,
		full:   w,
		tree:   tree,
		format: f,
		chips:  make([][]*chipBlock, p.Chips),
		kvK:    make([][]*tensor.Mat, p.Chips),
		kvV:    make([][]*tensor.Mat, p.Chips),
	}
	for c := 0; c < p.Chips; c++ {
		e.chips[c] = make([]*chipBlock, cfg.L)
		e.kvK[c] = make([]*tensor.Mat, cfg.L)
		e.kvV[c] = make([]*tensor.Mat, cfg.L)
	}
	for b, bw := range w.Blocks {
		full := blockMats[M]{
			WQ: enc(bw.WQ), WK: enc(bw.WK), WV: enc(bw.WV), WO: enc(bw.WO),
			W1: enc(bw.W1), W2: enc(bw.W2),
		}
		if cfg.FFN == model.FFNGated {
			full.W3 = enc(bw.W3)
		}
		for c := 0; c < p.Chips; c++ {
			e.chips[c][b] = sliceBlock(full, bw, p, c)
			e.kvK[c][b] = tensor.New(0, p.KVWidth(c))
			e.kvV[c][b] = tensor.New(0, p.KVWidth(c))
		}
	}
	return e, nil
}

// checkWeights reports the first matrix or vector of w whose shape is
// not the one cfg gives it. The gate W3 is present exactly under the
// gated FFN and the norm biases exactly under LayerNorm; the linear
// biases may be absent.
func checkWeights(w *model.Weights, cfg model.Config) error {
	if len(w.Blocks) != cfg.L {
		return fmt.Errorf("numeric: weights hold %d blocks, model %s has %d", len(w.Blocks), cfg.Name, cfg.L)
	}
	kv := cfg.KVDim()
	gateRows, gateCols := 0, 0
	if cfg.FFN == model.FFNGated {
		gateRows, gateCols = cfg.E, cfg.F
	}
	layerNorm := cfg.Norm == model.LayerNorm
	for b, bw := range w.Blocks {
		for _, m := range []struct {
			name       string
			m          *tensor.Mat
			rows, cols int
		}{
			{"WQ", bw.WQ, cfg.E, cfg.P}, {"WK", bw.WK, cfg.E, kv}, {"WV", bw.WV, cfg.E, kv},
			{"WO", bw.WO, cfg.P, cfg.E}, {"W1", bw.W1, cfg.E, cfg.F}, {"W2", bw.W2, cfg.F, cfg.E},
			{"W3", bw.W3, gateRows, gateCols},
		} {
			rows, cols := 0, 0
			if m.m != nil {
				rows, cols = m.m.Rows, m.m.Cols
			}
			if rows != m.rows || cols != m.cols {
				return fmt.Errorf("numeric: block %d %s is %dx%d, model %s needs %dx%d", b, m.name, rows, cols, cfg.Name, m.rows, m.cols)
			}
		}
		for _, v := range []struct {
			name     string
			v        []float32
			n        int
			required bool
		}{
			{"Norm1Gain", bw.Norm1Gain, cfg.E, true}, {"Norm2Gain", bw.Norm2Gain, cfg.E, true},
			{"Norm1Bias", bw.Norm1Bias, cfg.E, layerNorm}, {"Norm2Bias", bw.Norm2Bias, cfg.E, layerNorm},
			{"BQ", bw.BQ, cfg.P, false}, {"BK", bw.BK, kv, false}, {"BV", bw.BV, kv, false},
			{"BO", bw.BO, cfg.E, false}, {"B1", bw.B1, cfg.F, false}, {"B2", bw.B2, cfg.E, false},
		} {
			if (v.v != nil || v.required) && len(v.v) != v.n {
				return fmt.Errorf("numeric: block %d %s has length %d, model %s needs %d", b, v.name, len(v.v), cfg.Name, v.n)
			}
		}
	}
	return nil
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
	in := e.broadcast(mhsaIn, atMHSAIn, b)

	partials := make([]any, e.plan.Chips)
	for c := range partials {
		partials[c] = e.chipMHSA(c, b, in, startPos)
	}
	x2 := tensor.Add(x, e.reduce(partials, bw.BO, atAttProj, b)) // residual merged into the reduce

	var fcIn *tensor.Mat
	if cfg.Arch == model.Decoder {
		fcIn = normalize(cfg, x2, bw.Norm2Gain, bw.Norm2Bias)
	} else {
		x2 = normalize(cfg, x2, bw.Norm1Gain, bw.Norm1Bias) // post-norm
		fcIn = x2
	}
	in = e.broadcast(fcIn, atFCIn, b)

	for c := range partials {
		partials[c] = e.chipFC(c, b, in)
	}
	x3 := tensor.Add(x2, e.reduce(partials, bw.B2, atFCOut, b))
	if cfg.Arch == model.Encoder {
		x3 = normalize(cfg, x3, bw.Norm2Gain, bw.Norm2Bias)
	}
	return x3
}

// chipMHSA computes one chip's partial attention output (S×E) from the
// encoded broadcast.
func (e *Executor) chipMHSA(c, b int, in any, startPos int) any {
	cfg := e.cfg
	cb := e.chips[c][b]
	f := e.format

	q := f.decode(f.apply(in, cb.WQ))
	k := f.decode(f.apply(in, cb.WK))
	v := f.decode(f.apply(in, cb.WV))
	addBias(q, cb.BQ)
	addBias(k, cb.BK)
	addBias(v, cb.BV)
	if cfg.RoPE {
		positions := make([]int, q.Rows)
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
	return f.apply(e.encode(att, atAttOut, b), cb.WO)
}

// chipFC computes one chip's partial FC output (S×E) from the encoded
// broadcast.
func (e *Executor) chipFC(c, b int, in any) any {
	cb := e.chips[c][b]
	f := e.format

	var mid *tensor.Mat
	if e.cfg.FFN == model.FFNGated {
		gate := tensor.SiLU(f.decode(f.apply(in, cb.W1)))
		up := f.decode(f.apply(in, cb.W3))
		mid = tensor.Mul(gate, up)
	} else {
		mid = f.decode(f.apply(in, cb.W1))
		addBias(mid, cb.B1)
		tensor.GELU(mid)
	}
	return f.apply(e.encode(mid, atMid, b), cb.W2)
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

// broadcast records the root-to-all distribution of m and returns it
// encoded once for every chip.
func (e *Executor) broadcast(m *tensor.Mat, pt point, b int) any {
	for range e.tree.BroadcastHops() {
		e.Stats.BcastElems += int64(m.Rows) * int64(m.Cols)
	}
	e.Stats.Broadcasts++
	return e.encode(m, pt, b)
}

// reduce sums the chips' partials along the tree's reduce order and
// returns the root's sum with the output bias added.
func (e *Executor) reduce(partials []any, bias []float32, pt point, b int) *tensor.Mat {
	hops := e.tree.ReduceHops()
	sum := e.format.reduce(partials, hops, e.tree.Root, pt, b)
	e.Stats.ReduceElems += int64(len(hops)) * int64(sum.Rows) * int64(sum.Cols)
	e.Stats.Reduces++
	addBias(sum, bias)
	e.record(pt, b, sum)
	return sum
}

// encode puts m on the format's grid at point pt of block b.
func (e *Executor) encode(m *tensor.Mat, pt point, b int) any {
	e.record(pt, b, m)
	return e.format.encode(m, pt, b)
}

// record hands m's scale at point pt of block b to a calibrating run.
func (e *Executor) record(pt point, b int, m *tensor.Mat) {
	if e.tap != nil {
		e.tap.scales()[pt][b] = scaleOf(m)
	}
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
