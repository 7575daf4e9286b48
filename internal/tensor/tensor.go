// Package tensor provides the dense float32 linear algebra used by the
// functional transformer engine: matrices in row-major layout, GEMM and
// GEMV with float64 accumulation (so that differently-ordered partial
// sums stay comparable), and the activation functions that appear in
// the paper's models (softmax, GELU, SiLU, LayerNorm, RMSNorm, RoPE).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a row-major matrix of float32 values.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Random returns a matrix with values uniform in [-scale, scale],
// deterministic for a given seed.
func Random(rows, cols int, scale float32, seed int64) *Mat {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float32) {
	m.Data[r*m.Cols+c] = v
}

// Row returns a view of row r (no copy).
func (m *Mat) Row(r int) []float32 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SliceCols returns a copy of columns [lo, hi).
func (m *Mat) SliceCols(lo, hi int) *Mat {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: column slice [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r)[lo:hi])
	}
	return out
}

// SliceRows returns a copy of rows [lo, hi).
func (m *Mat) SliceRows(lo, hi int) *Mat {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// MatMul returns a·b with float64 accumulation.
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := float64(arow[k])
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += float32(av * float64(brow[j]))
			}
		}
	}
	return out
}

// MatMulT returns a·bᵀ with float64 accumulation; b is given untransposed
// (rows of b are the columns of the product).
func MatMulT(a, b *Mat) *Mat {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var acc float64
			for k := range arow {
				acc += float64(arow[k]) * float64(brow[k])
			}
			out.Set(i, j, float32(acc))
		}
	}
	return out
}

// Add returns a+b elementwise.
func Add(a, b *Mat) *Mat {
	checkSameShape("add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Mat) {
	checkSameShape("add", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Mat) Scale(s float32) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// ConcatCols concatenates matrices with equal row counts side by side.
func ConcatCols(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: concat rows %d != %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for r := 0; r < rows; r++ {
		dst := out.Row(r)
		off := 0
		for _, m := range ms {
			copy(dst[off:off+m.Cols], m.Row(r))
			off += m.Cols
		}
	}
	return out
}

// ConcatRows stacks matrices with equal column counts vertically.
func ConcatRows(ms ...*Mat) *Mat {
	if len(ms) == 0 {
		panic("tensor: concat of nothing")
	}
	cols := ms[0].Cols
	rows := 0
	for _, m := range ms {
		if m.Cols != cols {
			panic(fmt.Sprintf("tensor: concat cols %d != %d", m.Cols, cols))
		}
		rows += m.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.Data[off:off+len(m.Data)], m.Data)
		off += len(m.Data)
	}
	return out
}

// Softmax applies a numerically stable row-wise softmax in place and
// returns m. This is equation (3) of the paper.
func Softmax(m *Mat) *Mat {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		maxV := float64(math.Inf(-1))
		for _, v := range row {
			if float64(v) > maxV {
				maxV = float64(v)
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v) - maxV)
			row[i] = float32(e)
			sum += e
		}
		inv := 1 / sum
		for i := range row {
			row[i] = float32(float64(row[i]) * inv)
		}
	}
	return m
}

// CausalMaskedSoftmax applies softmax per row over only the first
// (offset + row + 1) columns, writing zero attention to future
// positions. Used by decoder attention in prompt mode.
func CausalMaskedSoftmax(m *Mat, offset int) *Mat {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		valid := offset + r + 1
		if valid > len(row) {
			valid = len(row)
		}
		maxV := float64(math.Inf(-1))
		for _, v := range row[:valid] {
			if float64(v) > maxV {
				maxV = float64(v)
			}
		}
		var sum float64
		for i := 0; i < valid; i++ {
			e := math.Exp(float64(row[i]) - maxV)
			row[i] = float32(e)
			sum += e
		}
		inv := 1 / sum
		for i := 0; i < valid; i++ {
			row[i] = float32(float64(row[i]) * inv)
		}
		for i := valid; i < len(row); i++ {
			row[i] = 0
		}
	}
	return m
}

// GELU applies the Gaussian error linear unit (tanh approximation, as
// deployed on MCU kernels) in place and returns m.
func GELU(m *Mat) *Mat {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range m.Data {
		x := float64(v)
		m.Data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
	return m
}

// SiLU applies x·sigmoid(x) in place and returns m (used by the
// Llama-style gated FFN variant).
func SiLU(m *Mat) *Mat {
	for i, v := range m.Data {
		x := float64(v)
		m.Data[i] = float32(x / (1 + math.Exp(-x)))
	}
	return m
}

// Mul returns the elementwise product a∘b.
func Mul(a, b *Mat) *Mat {
	checkSameShape("mul", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies the elementwise affine gain/bias, returning a new matrix.
func LayerNorm(m *Mat, gain, bias []float32, eps float64) *Mat {
	if len(gain) != m.Cols || len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: layernorm affine length %d/%d != cols %d", len(gain), len(bias), m.Cols))
	}
	out := New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(len(row))
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(len(row))
		inv := 1 / math.Sqrt(variance+eps)
		orow := out.Row(r)
		for i, v := range row {
			orow[i] = float32((float64(v)-mean)*inv*float64(gain[i])) + bias[i]
		}
	}
	return out
}

// RMSNorm normalizes each row by its root-mean-square and applies the
// gain, returning a new matrix (Llama-style normalization).
func RMSNorm(m *Mat, gain []float32, eps float64) *Mat {
	if len(gain) != m.Cols {
		panic(fmt.Sprintf("tensor: rmsnorm gain length %d != cols %d", len(gain), m.Cols))
	}
	out := New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		inv := 1 / math.Sqrt(ss/float64(len(row))+eps)
		orow := out.Row(r)
		for i, v := range row {
			orow[i] = float32(float64(v) * inv * float64(gain[i]))
		}
	}
	return out
}

// RoPE applies rotary position embeddings in place to a matrix whose
// rows are per-position vectors laid out as consecutive head slices of
// headDim elements. positions[r] is the absolute position of row r.
func RoPE(m *Mat, headDim int, positions []int, theta float64) *Mat {
	if headDim <= 0 || headDim%2 != 0 {
		panic(fmt.Sprintf("tensor: rope head dim %d must be positive and even", headDim))
	}
	if m.Cols%headDim != 0 {
		panic(fmt.Sprintf("tensor: rope cols %d not a multiple of head dim %d", m.Cols, headDim))
	}
	if len(positions) != m.Rows {
		panic(fmt.Sprintf("tensor: rope positions %d != rows %d", len(positions), m.Rows))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		pos := float64(positions[r])
		for h := 0; h < m.Cols; h += headDim {
			for i := 0; i < headDim; i += 2 {
				freq := 1 / math.Pow(theta, float64(i)/float64(headDim))
				angle := pos * freq
				sin, cos := math.Sincos(angle)
				a, b := float64(row[h+i]), float64(row[h+i+1])
				row[h+i] = float32(a*cos - b*sin)
				row[h+i+1] = float32(a*sin + b*cos)
			}
		}
	}
	return m
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(a, b *Mat) float64 {
	checkSameShape("diff", a, b)
	var maxD float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

func checkSameShape(op string, a, b *Mat) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
