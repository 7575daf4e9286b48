package numeric

import (
	"errors"
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

// point names a place in a block where the int8 format puts a tensor
// on a calibrated grid; it indexes Calibration.scales.
type point int

const (
	atMHSAIn point = iota
	atAttOut
	atAttProj
	atFCIn
	atMid
	atFCOut
)

var pointNames = [...]string{"MHSAIn", "AttOut", "AttProj", "FCIn", "Mid", "FCOut"}

// scales lists the calibration's per-block scale vectors in point
// order.
func (c *Calibration) scales() [6][]float32 {
	return [...][]float32{c.MHSAIn, c.AttOut, c.AttProj, c.FCIn, c.Mid, c.FCOut}
}

// Calibrate runs the float32 executor over x (prompt style) on one
// chip and records each block's maximum magnitude at every point where
// the int8 format quantizes. It fails when w does not fit its config.
func Calibrate(w *model.Weights, x *tensor.Mat) (*Calibration, error) {
	p, err := partition.NewTensorParallel(w.Config, 1)
	if err != nil {
		return nil, err
	}
	e, err := NewExecutor(w, p)
	if err != nil {
		return nil, err
	}
	n := w.Config.L
	e.tap = &Calibration{
		MHSAIn:  make([]float32, n),
		AttOut:  make([]float32, n),
		AttProj: make([]float32, n),
		FCIn:    make([]float32, n),
		Mid:     make([]float32, n),
		FCOut:   make([]float32, n),
	}
	e.Forward(x)
	return e.tap, nil
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

// NewQuantEngine returns the int8 executor: it quantizes each weight
// matrix of w once, distributes the codes according to the plan, puts
// activations on cal's grids, and exchanges partials in mode's
// precision. A one-chip plan is the single-chip int8 reference.
func NewQuantEngine(w *model.Weights, p *partition.Plan, cal *Calibration, mode ReduceMode) (*Executor, error) {
	if cal == nil {
		return nil, errors.New("numeric: the int8 executor needs a calibration")
	}
	for pt, s := range cal.scales() {
		if len(s) != p.Config.L {
			return nil, fmt.Errorf("numeric: calibration %s covers %d blocks, model %s has %d", pointNames[pt], len(s), p.Config.Name, p.Config.L)
		}
		for b, v := range s {
			if !(v > 0) {
				return nil, fmt.Errorf("numeric: calibration %s scale of block %d is %g, not positive", pointNames[pt], b, v)
			}
		}
	}
	if mode < ReduceInt32 || mode > ReduceInt16 {
		return nil, fmt.Errorf("numeric: unknown reduce mode %d", mode)
	}
	return newExecutor(w, p, int8Format{cal: cal, mode: mode}, quant.Quantize)
}

// int8Format computes in int8 under a calibration: the root quantizes
// a broadcast once onto its calibrated grid, a chip multiplies int8
// codes into int32 accumulators, and partials combine in the precision
// mode selects.
type int8Format struct {
	cal  *Calibration
	mode ReduceMode
}

func (f int8Format) encode(m *tensor.Mat, pt point, b int) any {
	return quant.QuantizeWithScale(m, f.cal.scales()[pt][b])
}

func (int8Format) apply(x, w any) any {
	return quant.MatMulQ(x.(*quant.QMat), w.(*quant.QMat))
}

func (int8Format) decode(p any) *tensor.Mat { return p.(*quant.Acc).Dequantize() }

// reduce combines per-chip partial accumulators along the hops and
// returns the dequantized float sum. Int32 mode adds exact
// accumulators; the int8/int16 modes requantize each partial onto the
// exchange grid of the scale calibrated at pt first and add with
// saturation, exactly as the low-traffic deployments would.
func (f int8Format) reduce(parts []any, hops []interconnect.Hop, root int, pt point, b int) *tensor.Mat {
	outScale := f.cal.scales()[pt][b]
	switch f.mode {
	case ReduceInt32:
		for _, hop := range hops {
			parts[hop.To].(*quant.Acc).AddInPlace(parts[hop.From].(*quant.Acc))
		}
		return parts[root].(*quant.Acc).Dequantize()
	case ReduceInt8:
		q := make([]*quant.QMat, len(parts))
		for i, p := range parts {
			q[i] = p.(*quant.Acc).Requantize(outScale)
		}
		for _, hop := range hops {
			saturatingAdd(q[hop.To], q[hop.From])
		}
		return q[root].Dequantize()
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
			q[i] = requantize16(p.(*quant.Acc), scale16)
		}
		for _, hop := range hops {
			saturatingAdd16(q[hop.To], q[hop.From])
		}
		acc := parts[root].(*quant.Acc)
		out := tensor.New(acc.Rows, acc.Cols)
		for i, v := range q[root] {
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
