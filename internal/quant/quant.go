// Package quant implements the int8 symmetric quantization used for
// MCU deployment: per-tensor scales, integer GEMM/GEMV with int32
// accumulators, and requantization back to int8.
//
// The important property for the paper's partitioning scheme is that
// partial int32 accumulators from different chips can be summed
// exactly before requantization, so the distributed quantized network
// is bit-identical to the single-chip quantized network. The numeric
// tests in internal/numeric rely on this.
package quant

import (
	"fmt"
	"math"

	"mcudist/internal/tensor"
)

// QMat is a row-major int8 matrix with a per-tensor symmetric scale:
// real value ≈ Scale × int8 value.
type QMat struct {
	Rows, Cols int
	Scale      float32
	Data       []int8
}

// NewQ returns a zero int8 matrix with the given shape and scale.
func NewQ(rows, cols int, scale float32) *QMat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("quant: negative shape %dx%d", rows, cols))
	}
	return &QMat{Rows: rows, Cols: cols, Scale: scale, Data: make([]int8, rows*cols)}
}

// Row returns a view of row r.
func (q *QMat) Row(r int) []int8 { return q.Data[r*q.Cols : (r+1)*q.Cols] }

// SliceCols returns a copy of columns [lo, hi); the scale is shared.
func (q *QMat) SliceCols(lo, hi int) *QMat {
	if lo < 0 || hi > q.Cols || lo > hi {
		panic(fmt.Sprintf("quant: column slice [%d,%d) of %d cols", lo, hi, q.Cols))
	}
	out := NewQ(q.Rows, hi-lo, q.Scale)
	for r := 0; r < q.Rows; r++ {
		copy(out.Row(r), q.Row(r)[lo:hi])
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi); the scale is shared.
func (q *QMat) SliceRows(lo, hi int) *QMat {
	if lo < 0 || hi > q.Rows || lo > hi {
		panic(fmt.Sprintf("quant: row slice [%d,%d) of %d rows", lo, hi, q.Rows))
	}
	out := NewQ(hi-lo, q.Cols, q.Scale)
	copy(out.Data, q.Data[lo*q.Cols:hi*q.Cols])
	return out
}

// Quantize converts a float matrix to int8 with a symmetric per-tensor
// scale chosen from the maximum absolute value.
func Quantize(m *tensor.Mat) *QMat {
	var maxAbs float64
	for _, v := range m.Data {
		a := math.Abs(float64(v))
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := float32(maxAbs / 127)
	if maxAbs == 0 {
		scale = 1
	}
	out := NewQ(m.Rows, m.Cols, scale)
	inv := 1 / float64(scale)
	for i, v := range m.Data {
		out.Data[i] = clampInt8(math.Round(float64(v) * inv))
	}
	return out
}

// QuantizeWithScale converts using a caller-chosen scale, so that
// differently-sliced copies of one tensor share identical codes.
func QuantizeWithScale(m *tensor.Mat, scale float32) *QMat {
	if scale <= 0 {
		panic("quant: scale must be positive")
	}
	out := NewQ(m.Rows, m.Cols, scale)
	inv := 1 / float64(scale)
	for i, v := range m.Data {
		out.Data[i] = clampInt8(math.Round(float64(v) * inv))
	}
	return out
}

// Dequantize converts back to float32.
func (q *QMat) Dequantize() *tensor.Mat {
	out := tensor.New(q.Rows, q.Cols)
	for i, v := range q.Data {
		out.Data[i] = float32(v) * q.Scale
	}
	return out
}

// Acc is a row-major int32 accumulator matrix produced by integer
// matrix multiplication before requantization. Scale is the product of
// the input scales (the real value of one accumulator unit).
type Acc struct {
	Rows, Cols int
	Scale      float32
	Data       []int32
}

// NewAcc returns a zero accumulator matrix.
func NewAcc(rows, cols int, scale float32) *Acc {
	return &Acc{Rows: rows, Cols: cols, Scale: scale, Data: make([]int32, rows*cols)}
}

// Row returns a view of row r.
func (a *Acc) Row(r int) []int32 { return a.Data[r*a.Cols : (r+1)*a.Cols] }

// AddInPlace accumulates b into a; scales must match. This is the
// reduction step of the distributed partial sums.
func (a *Acc) AddInPlace(b *Acc) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("quant: acc add shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if a.Scale != b.Scale {
		panic(fmt.Sprintf("quant: acc add scale mismatch %g vs %g", a.Scale, b.Scale))
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// MatMulQ computes x·w into int32 accumulators: x is S×K activations,
// w is K×N weights. The accumulator scale is x.Scale × w.Scale.
func MatMulQ(x, w *QMat) *Acc {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("quant: matmul shape mismatch %dx%d · %dx%d", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := NewAcc(x.Rows, w.Cols, x.Scale*w.Scale)
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

// Requantize converts accumulators to int8 under the target scale,
// with round-to-nearest and saturation. The mapping is
// int8 ≈ (acc × acc.Scale) / outScale.
func (a *Acc) Requantize(outScale float32) *QMat {
	if outScale <= 0 {
		panic("quant: requantize scale must be positive")
	}
	out := NewQ(a.Rows, a.Cols, outScale)
	ratio := float64(a.Scale) / float64(outScale)
	for i, v := range a.Data {
		out.Data[i] = clampInt8(math.Round(float64(v) * ratio))
	}
	return out
}

// Dequantize converts accumulators directly to float32.
func (a *Acc) Dequantize() *tensor.Mat {
	out := tensor.New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = float32(v) * a.Scale
	}
	return out
}

func clampInt8(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}
