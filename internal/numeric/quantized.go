package numeric

import (
	"fmt"
	"math"

	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/quant"
	"mcudist/internal/tensor"
)

// Calibration holds per-block activation scales, gathered from a
// float32 calibration pass (the standard post-training-quantization
// flow). All chips share these scales, which is what makes the
// distributed int8 network equal to the single-chip int8 network.
type Calibration struct {
	MHSAIn  []float32 // broadcast MHSA input
	AttOut  []float32 // concatenated head outputs (pre-WO)
	AttProj []float32 // attention projection sum (int8-reduce mode)
	FCIn    []float32 // broadcast FC input
	Mid     []float32 // post-activation FFN intermediate
	FCOut   []float32 // FC output sum (int8-reduce mode)
}

// Calibrate runs a float pass over x (prompt style) and records
// per-block maximum magnitudes at every quantization point.
func Calibrate(w *model.Weights, x *tensor.Mat) *Calibration {
	cfg := w.Config
	cal := &Calibration{
		MHSAIn:  make([]float32, cfg.L),
		AttOut:  make([]float32, cfg.L),
		AttProj: make([]float32, cfg.L),
		FCIn:    make([]float32, cfg.L),
		Mid:     make([]float32, cfg.L),
		FCOut:   make([]float32, cfg.L),
	}
	out := x.Clone()
	for b := 0; b < cfg.L; b++ {
		bw := w.Blocks[b]
		var mhsaIn *tensor.Mat
		if cfg.Arch == model.Decoder {
			mhsaIn = normalize(cfg, out, bw.Norm1Gain, bw.Norm1Bias)
		} else {
			mhsaIn = out
		}
		cal.MHSAIn[b] = scaleOf(mhsaIn)

		q := tensor.MatMul(mhsaIn, bw.WQ)
		k := tensor.MatMul(mhsaIn, bw.WK)
		v := tensor.MatMul(mhsaIn, bw.WV)
		addBias(q, bw.BQ)
		addBias(k, bw.BK)
		addBias(v, bw.BV)
		if cfg.RoPE {
			positions := make([]int, mhsaIn.Rows)
			for i := range positions {
				positions[i] = i
			}
			tensor.RoPE(q, cfg.HeadDim(), positions, cfg.RoPETheta)
			tensor.RoPE(k, cfg.HeadDim(), positions, cfg.RoPETheta)
		}
		att := attendHeads(cfg, q, k, v, 0, cfg.H)
		cal.AttOut[b] = scaleOf(att)
		proj := tensor.MatMul(att, bw.WO)
		addBias(proj, bw.BO)
		cal.AttProj[b] = scaleOf(proj)
		x2 := tensor.Add(out, proj)

		var fcIn *tensor.Mat
		if cfg.Arch == model.Decoder {
			fcIn = normalize(cfg, x2, bw.Norm2Gain, bw.Norm2Bias)
		} else {
			x2 = normalize(cfg, x2, bw.Norm1Gain, bw.Norm1Bias)
			fcIn = x2
		}
		cal.FCIn[b] = scaleOf(fcIn)

		var mid *tensor.Mat
		if cfg.FFN == model.FFNGated {
			gate := tensor.SiLU(tensor.MatMul(fcIn, bw.W1))
			mid = tensor.Mul(gate, tensor.MatMul(fcIn, bw.W3))
		} else {
			mid = tensor.MatMul(fcIn, bw.W1)
			addBias(mid, bw.B1)
			tensor.GELU(mid)
		}
		cal.Mid[b] = scaleOf(mid)
		fc := tensor.MatMul(mid, bw.W2)
		addBias(fc, bw.B2)
		cal.FCOut[b] = scaleOf(fc)
		out = tensor.Add(x2, fc)
		if cfg.Arch == model.Encoder {
			out = normalize(cfg, out, bw.Norm2Gain, bw.Norm2Bias)
		}
	}
	return cal
}

func scaleOf(m *tensor.Mat) float32 {
	var maxAbs float64
	for _, v := range m.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	return float32(maxAbs / 127)
}

// QuantBlock holds one block's int8 weights (full tensors; slices are
// taken per chip so that every chip shares the same codes and scales).
type QuantBlock struct {
	WQ, WK, WV, WO *quant.QMat
	W1, W2         *quant.QMat
	W3             *quant.QMat
}

func quantizeBlocks(w *model.Weights) []*QuantBlock {
	qz := func(m *tensor.Mat) *quant.QMat {
		if m == nil {
			return nil
		}
		return quant.Quantize(m)
	}
	out := make([]*QuantBlock, w.Config.L)
	for b, bw := range w.Blocks {
		out[b] = &QuantBlock{
			WQ: qz(bw.WQ), WK: qz(bw.WK), WV: qz(bw.WV), WO: qz(bw.WO),
			W1: qz(bw.W1), W2: qz(bw.W2), W3: qz(bw.W3),
		}
	}
	return out
}

// ReduceMode selects the precision of the inter-chip partial-output
// exchange.
type ReduceMode int

const (
	// ReduceInt32 exchanges int32 accumulators: the distributed
	// result is bit-exact against the single-chip quantized network.
	ReduceInt32 ReduceMode = iota
	// ReduceInt8 requantizes partials to the output's int8 grid
	// before the exchange (the minimal-traffic flow). Because each
	// chip's partial is roughly 1/N of the final magnitude, it lands
	// on few effective bits of that grid; the deviation grows with
	// chip count and depth.
	ReduceInt8
	// ReduceInt16 exchanges int16 partials: 2× the traffic of int8,
	// 256× finer grid — deviation drops to rounding noise. The
	// practical middle point.
	ReduceInt16
)

// QuantEngine runs the int8 network on n chips (n = 1 is the
// single-chip reference).
type QuantEngine struct {
	cfg    model.Config
	full   *model.Weights
	blocks []*QuantBlock
	cal    *Calibration
	plan   *partition.Plan
	tree   *interconnect.Tree
	mode   ReduceMode
	kvK    [][]*tensor.Mat // [chip][block], float KV cache
	kvV    [][]*tensor.Mat
	pos    int
}

// NewQuantEngine quantizes w once and distributes the codes according
// to the plan.
func NewQuantEngine(w *model.Weights, p *partition.Plan, cal *Calibration, mode ReduceMode) (*QuantEngine, error) {
	if p.Strategy != partition.TensorParallel {
		return nil, fmt.Errorf("numeric: quant engine supports the tensor-parallel strategy, got %v", p.Strategy)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tree, err := interconnect.BuildTree(p.Chips, 4)
	if err != nil {
		return nil, err
	}
	e := &QuantEngine{
		cfg:    w.Config,
		full:   w,
		blocks: quantizeBlocks(w),
		cal:    cal,
		plan:   p,
		tree:   tree,
		mode:   mode,
		kvK:    make([][]*tensor.Mat, p.Chips),
		kvV:    make([][]*tensor.Mat, p.Chips),
	}
	for c := 0; c < p.Chips; c++ {
		e.kvK[c] = make([]*tensor.Mat, w.Config.L)
		e.kvV[c] = make([]*tensor.Mat, w.Config.L)
		for b := 0; b < w.Config.L; b++ {
			e.kvK[c][b] = tensor.New(0, p.KVWidth(c))
			e.kvV[c][b] = tensor.New(0, p.KVWidth(c))
		}
	}
	return e, nil
}

// Forward runs the quantized prompt-mode pass.
func (e *QuantEngine) Forward(x *tensor.Mat) *tensor.Mat {
	if e.pos != 0 {
		panic("numeric: prompt forward requires empty caches")
	}
	out := e.run(x, 0)
	if e.cfg.Arch == model.Decoder {
		e.pos = x.Rows
	}
	return out
}

func (e *QuantEngine) run(x *tensor.Mat, startPos int) *tensor.Mat {
	out := x.Clone()
	for b := 0; b < e.cfg.L; b++ {
		out = e.block(b, out, startPos)
	}
	return out
}

func (e *QuantEngine) block(b int, x *tensor.Mat, startPos int) *tensor.Mat {
	cfg := e.cfg
	bw := e.full.Blocks[b]
	n := e.plan.Chips

	var mhsaIn *tensor.Mat
	if cfg.Arch == model.Decoder {
		mhsaIn = normalize(cfg, x, bw.Norm1Gain, bw.Norm1Bias)
	} else {
		mhsaIn = x
	}
	// The root quantizes once; all chips receive the same codes.
	qIn := quant.QuantizeWithScale(mhsaIn, e.cal.MHSAIn[b])

	attParts := make([]*quant.Acc, n)
	for c := 0; c < n; c++ {
		attParts[c] = e.chipMHSA(c, b, qIn, startPos)
	}
	att := e.reduceAccs(attParts, e.cal.AttProj[b])
	addBias(att, bw.BO)
	x2 := tensor.Add(x, att)

	var fcIn *tensor.Mat
	if cfg.Arch == model.Decoder {
		fcIn = normalize(cfg, x2, bw.Norm2Gain, bw.Norm2Bias)
	} else {
		x2 = normalize(cfg, x2, bw.Norm1Gain, bw.Norm1Bias)
		fcIn = x2
	}
	qFC := quant.QuantizeWithScale(fcIn, e.cal.FCIn[b])

	fcParts := make([]*quant.Acc, n)
	for c := 0; c < n; c++ {
		fcParts[c] = e.chipFC(c, b, qFC)
	}
	fc := e.reduceAccs(fcParts, e.cal.FCOut[b])
	addBias(fc, bw.B2)
	x3 := tensor.Add(x2, fc)
	if cfg.Arch == model.Encoder {
		x3 = normalize(cfg, x3, bw.Norm2Gain, bw.Norm2Bias)
	}
	return x3
}

// chipMHSA computes one chip's partial attention projection as int32
// accumulators against the chip's weight-code slices.
func (e *QuantEngine) chipMHSA(c, b int, qIn *quant.QMat, startPos int) *quant.Acc {
	cfg := e.cfg
	qb := e.blocks[b]
	bw := e.full.Blocks[b]
	pr := e.plan.PRange(c)
	kr := e.plan.KVRange(c)

	q := quant.MatMulQ(qIn, qb.WQ.SliceCols(pr.Lo, pr.Hi)).Dequantize()
	k := quant.MatMulQ(qIn, qb.WK.SliceCols(kr.Lo, kr.Hi)).Dequantize()
	v := quant.MatMulQ(qIn, qb.WV.SliceCols(kr.Lo, kr.Hi)).Dequantize()
	if bw.HasBiases() {
		addBias(q, bw.BQ[pr.Lo:pr.Hi])
		addBias(k, bw.BK[kr.Lo:kr.Hi])
		addBias(v, bw.BV[kr.Lo:kr.Hi])
	}
	if cfg.RoPE {
		positions := make([]int, qIn.Rows)
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
	qAtt := quant.QuantizeWithScale(att, e.cal.AttOut[b])
	return quant.MatMulQ(qAtt, qb.WO.SliceRows(pr.Lo, pr.Hi))
}

// chipFC computes one chip's partial FC output as int32 accumulators.
func (e *QuantEngine) chipFC(c, b int, qIn *quant.QMat) *quant.Acc {
	cfg := e.cfg
	qb := e.blocks[b]
	bw := e.full.Blocks[b]
	fr := e.plan.FSlice[c]

	var mid *tensor.Mat
	if cfg.FFN == model.FFNGated {
		gate := tensor.SiLU(quant.MatMulQ(qIn, qb.W1.SliceCols(fr.Lo, fr.Hi)).Dequantize())
		up := quant.MatMulQ(qIn, qb.W3.SliceCols(fr.Lo, fr.Hi)).Dequantize()
		mid = tensor.Mul(gate, up)
	} else {
		mid = quant.MatMulQ(qIn, qb.W1.SliceCols(fr.Lo, fr.Hi)).Dequantize()
		if bw.HasBiases() {
			addBias(mid, bw.B1[fr.Lo:fr.Hi])
		}
		tensor.GELU(mid)
	}
	qMid := quant.QuantizeWithScale(mid, e.cal.Mid[b])
	return quant.MatMulQ(qMid, qb.W2.SliceRows(fr.Lo, fr.Hi))
}

// reduceAccs combines per-chip partial accumulators along the tree and
// returns the dequantized float sum. Int32 mode adds exact
// accumulators; the int8/int16 modes requantize each partial onto the
// exchange grid first and add with saturation, exactly as the
// low-traffic deployments would.
func (e *QuantEngine) reduceAccs(parts []*quant.Acc, outScale float32) *tensor.Mat {
	switch e.mode {
	case ReduceInt32:
		for _, hop := range e.tree.ReduceHops() {
			parts[hop.To].AddInPlace(parts[hop.From])
		}
		return parts[e.tree.Root].Dequantize()
	case ReduceInt8:
		q := make([]*quant.QMat, len(parts))
		for i, p := range parts {
			q[i] = p.Requantize(outScale)
		}
		for _, hop := range e.tree.ReduceHops() {
			saturatingAdd(q[hop.To], q[hop.From])
		}
		return q[e.tree.Root].Dequantize()
	case ReduceInt16:
		// 16-bit grid anchored at the output scale: 256× finer than
		// the int8 exchange, so the per-reduce injection is rounding
		// noise. (Deviations visible at network depth come from the
		// chaotic amplification every post-training-quantized network
		// applies to small perturbations — see cmd/verify — not from
		// this grid.)
		scale16 := outScale / 256
		q := make([][]int16, len(parts))
		for i, p := range parts {
			q[i] = requantize16(p, scale16)
		}
		for _, hop := range e.tree.ReduceHops() {
			saturatingAdd16(q[hop.To], q[hop.From])
		}
		out := tensor.New(parts[0].Rows, parts[0].Cols)
		root := q[e.tree.Root]
		for i, v := range root {
			out.Data[i] = float32(v) * scale16
		}
		return out
	default:
		panic("numeric: unknown reduce mode")
	}
}

// requantize16 converts accumulators to int16 under scale16, with
// round-to-nearest and saturation: the int16 exchange's counterpart of
// quant.(*Acc).Requantize.
func requantize16(a *quant.Acc, scale16 float32) []int16 {
	out := make([]int16, len(a.Data))
	ratio := float64(a.Scale) / float64(scale16)
	for i, v := range a.Data {
		r := math.Round(float64(v) * ratio)
		if r > 32767 {
			r = 32767
		}
		if r < -32768 {
			r = -32768
		}
		out[i] = int16(r)
	}
	return out
}

func saturatingAdd16(dst, src []int16) {
	for i := range dst {
		s := int32(dst[i]) + int32(src[i])
		if s > 32767 {
			s = 32767
		}
		if s < -32768 {
			s = -32768
		}
		dst[i] = int16(s)
	}
}

func saturatingAdd(dst, src *quant.QMat) {
	for i := range dst.Data {
		s := int32(dst.Data[i]) + int32(src.Data[i])
		if s > 127 {
			s = 127
		}
		if s < -128 {
			s = -128
		}
		dst.Data[i] = int8(s)
	}
}
