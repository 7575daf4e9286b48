package quant

import (
	"fmt"
	"math"

	"mcudist/internal/tensor"
)

// QCMat is an int8 weight matrix with per-output-channel (per-column)
// scales — the granularity PULP-NN / Deeploy deployments use, which
// tolerates channels of very different magnitude.
//
// Per-channel scales compose with the paper's partitioning exactly:
// column slices carry their own scales, and row slices (inner-dim
// splits) keep every column's scale, so int32 partial sums from
// different chips still reduce exactly. The property tests alongside
// prove both directions.
type QCMat struct {
	Rows, Cols int
	Scales     []float32 // one per column
	Data       []int8
}

// QuantizePerChannel converts a float weight matrix to int8 with one
// symmetric scale per column.
func QuantizePerChannel(m *tensor.Mat) *QCMat {
	q := &QCMat{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Scales: make([]float32, m.Cols),
		Data:   make([]int8, m.Rows*m.Cols),
	}
	for c := 0; c < m.Cols; c++ {
		var maxAbs float64
		for r := 0; r < m.Rows; r++ {
			if a := math.Abs(float64(m.At(r, c))); a > maxAbs {
				maxAbs = a
			}
		}
		scale := float32(maxAbs / 127)
		if maxAbs == 0 {
			scale = 1
		}
		q.Scales[c] = scale
		inv := 1 / float64(scale)
		for r := 0; r < m.Rows; r++ {
			q.Data[r*m.Cols+c] = clampInt8(math.Round(float64(m.At(r, c)) * inv))
		}
	}
	return q
}

// Row returns a view of row r.
func (q *QCMat) Row(r int) []int8 { return q.Data[r*q.Cols : (r+1)*q.Cols] }

// SliceCols returns a copy of columns [lo, hi) with their scales.
func (q *QCMat) SliceCols(lo, hi int) *QCMat {
	if lo < 0 || hi > q.Cols || lo > hi {
		panic(fmt.Sprintf("quant: per-channel column slice [%d,%d) of %d", lo, hi, q.Cols))
	}
	out := &QCMat{
		Rows:   q.Rows,
		Cols:   hi - lo,
		Scales: append([]float32(nil), q.Scales[lo:hi]...),
		Data:   make([]int8, q.Rows*(hi-lo)),
	}
	for r := 0; r < q.Rows; r++ {
		copy(out.Row(r), q.Row(r)[lo:hi])
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi); every column keeps its
// scale (the inner-dimension split of the partitioning).
func (q *QCMat) SliceRows(lo, hi int) *QCMat {
	if lo < 0 || hi > q.Rows || lo > hi {
		panic(fmt.Sprintf("quant: per-channel row slice [%d,%d) of %d", lo, hi, q.Rows))
	}
	out := &QCMat{
		Rows:   hi - lo,
		Cols:   q.Cols,
		Scales: append([]float32(nil), q.Scales...),
		Data:   append([]int8(nil), q.Data[lo*q.Cols:hi*q.Cols]...),
	}
	return out
}

// AccPC is an int32 accumulator matrix whose real value per element is
// Data × ActScale × WScales[col].
type AccPC struct {
	Rows, Cols int
	ActScale   float32
	WScales    []float32
	Data       []int32
}

// Row returns a view of row r.
func (a *AccPC) Row(r int) []int32 { return a.Data[r*a.Cols : (r+1)*a.Cols] }

// MatMulQPC computes x·w into per-channel int32 accumulators.
func MatMulQPC(x *QMat, w *QCMat) *AccPC {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("quant: per-channel matmul shape mismatch %dx%d · %dx%d", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := &AccPC{
		Rows:     x.Rows,
		Cols:     w.Cols,
		ActScale: x.Scale,
		WScales:  append([]float32(nil), w.Scales...),
		Data:     make([]int32, x.Rows*w.Cols),
	}
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		orow := out.Row(i)
		for k := 0; k < x.Cols; k++ {
			xv := int32(xrow[k])
			if xv == 0 {
				continue
			}
			wrow := w.Row(k)
			for j := range orow {
				orow[j] += xv * int32(wrow[j])
			}
		}
	}
	return out
}

// AddInPlace accumulates b into a; shapes and scale bases must match
// (the distributed partial-sum reduction).
func (a *AccPC) AddInPlace(b *AccPC) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("quant: per-channel acc shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.ActScale != b.ActScale {
		panic(fmt.Sprintf("quant: per-channel act scale mismatch %g vs %g", a.ActScale, b.ActScale))
	}
	for c := range a.WScales {
		if a.WScales[c] != b.WScales[c] {
			panic(fmt.Sprintf("quant: channel %d scale mismatch %g vs %g", c, a.WScales[c], b.WScales[c]))
		}
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Requantize converts per-channel accumulators to int8 under a single
// per-tensor scale (the exchange grid of the distributed reduce),
// with round-to-nearest and saturation.
func (a *AccPC) Requantize(outScale float32) *QMat {
	if outScale <= 0 {
		panic("quant: requantize scale must be positive")
	}
	out := NewQ(a.Rows, a.Cols, outScale)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		orow := out.Row(r)
		for c := range row {
			ratio := float64(a.ActScale) * float64(a.WScales[c]) / float64(outScale)
			orow[c] = clampInt8(math.Round(float64(row[c]) * ratio))
		}
	}
	return out
}

// Dequantize converts accumulators to float32 using the per-channel
// scale basis.
func (a *AccPC) Dequantize() *tensor.Mat {
	out := tensor.New(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		orow := out.Row(r)
		for c := range row {
			orow[c] = float32(row[c]) * a.ActScale * a.WScales[c]
		}
	}
	return out
}
