package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if got.Data[i] != v {
			t.Fatalf("matmul[%d] = %g, want %g", i, got.Data[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := Random(5, 5, 1, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	got := MatMul(a, id)
	if MaxAbsDiff(a, got) != 0 {
		t.Fatal("a·I != a")
	}
	got = MatMul(id, a)
	if MaxAbsDiff(a, got) != 0 {
		t.Fatal("I·a != a")
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	a := Random(4, 6, 1, 2)
	b := Random(5, 6, 1, 3)
	bt := New(6, 5)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	got := MatMulT(a, b)
	want := MatMul(a, bt)
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Fatalf("matmulT differs from matmul by %g", d)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestSlicesRoundTrip(t *testing.T) {
	m := Random(6, 8, 1, 4)
	back := ConcatCols(m.SliceCols(0, 3), m.SliceCols(3, 8))
	if MaxAbsDiff(m, back) != 0 {
		t.Fatal("column slice + concat is not identity")
	}
	back = ConcatRows(m.SliceRows(0, 2), m.SliceRows(2, 6))
	if MaxAbsDiff(m, back) != 0 {
		t.Fatal("row slice + concat is not identity")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	m := Random(7, 13, 5, 5)
	Softmax(m)
	for r := 0; r < m.Rows; r++ {
		var sum float64
		for _, v := range m.Row(r) {
			if v < 0 {
				t.Fatalf("negative softmax output %g", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %g", r, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromSlice(1, 3, []float32{1000, 1000, 1000})
	Softmax(m)
	for _, v := range m.Data {
		if math.Abs(float64(v)-1.0/3.0) > 1e-6 {
			t.Fatalf("softmax of equal large values = %g, want 1/3", v)
		}
	}
}

func TestCausalMaskedSoftmax(t *testing.T) {
	m := Random(4, 4, 1, 6)
	CausalMaskedSoftmax(m, 0)
	for r := 0; r < 4; r++ {
		row := m.Row(r)
		var sum float64
		for c, v := range row {
			if c > r && v != 0 {
				t.Fatalf("future position (%d,%d) has weight %g", r, c, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("masked row %d sums to %g", r, sum)
		}
	}
}

func TestCausalMaskedSoftmaxWithOffset(t *testing.T) {
	// With offset 2, row 0 may attend to positions 0..2.
	m := Random(2, 5, 1, 7)
	CausalMaskedSoftmax(m, 2)
	if m.At(0, 3) != 0 || m.At(0, 4) != 0 {
		t.Fatal("offset mask allowed future attention")
	}
	if m.At(1, 3) == 0 {
		t.Fatal("offset mask blocked a valid position")
	}
}

func TestGELUKnownValues(t *testing.T) {
	m := FromSlice(1, 3, []float32{0, 10, -10})
	GELU(m)
	if m.Data[0] != 0 {
		t.Errorf("gelu(0) = %g, want 0", m.Data[0])
	}
	if math.Abs(float64(m.Data[1])-10) > 1e-3 {
		t.Errorf("gelu(10) = %g, want ~10", m.Data[1])
	}
	if math.Abs(float64(m.Data[2])) > 1e-3 {
		t.Errorf("gelu(-10) = %g, want ~0", m.Data[2])
	}
}

func TestSiLUKnownValues(t *testing.T) {
	m := FromSlice(1, 2, []float32{0, 20})
	SiLU(m)
	if m.Data[0] != 0 {
		t.Errorf("silu(0) = %g, want 0", m.Data[0])
	}
	if math.Abs(float64(m.Data[1])-20) > 1e-3 {
		t.Errorf("silu(20) = %g, want ~20", m.Data[1])
	}
}

func TestLayerNormStatistics(t *testing.T) {
	m := Random(3, 64, 10, 8)
	gain := make([]float32, 64)
	bias := make([]float32, 64)
	for i := range gain {
		gain[i] = 1
	}
	out := LayerNorm(m, gain, bias, 1e-5)
	for r := 0; r < out.Rows; r++ {
		var mean, variance float64
		for _, v := range out.Row(r) {
			mean += float64(v)
		}
		mean /= 64
		for _, v := range out.Row(r) {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= 64
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %g", r, mean)
		}
		if math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d variance %g", r, variance)
		}
	}
}

func TestRMSNormUnitRMS(t *testing.T) {
	m := Random(3, 32, 4, 9)
	gain := make([]float32, 32)
	for i := range gain {
		gain[i] = 1
	}
	out := RMSNorm(m, gain, 1e-6)
	for r := 0; r < out.Rows; r++ {
		var ss float64
		for _, v := range out.Row(r) {
			ss += float64(v) * float64(v)
		}
		rms := math.Sqrt(ss / 32)
		if math.Abs(rms-1) > 1e-2 {
			t.Fatalf("row %d rms %g", r, rms)
		}
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	m := Random(4, 64, 1, 10)
	orig := m.Clone()
	positions := []int{0, 1, 5, 100}
	RoPE(m, 16, positions, 10000)
	for r := 0; r < m.Rows; r++ {
		var a, b float64
		for _, v := range orig.Row(r) {
			a += float64(v) * float64(v)
		}
		for _, v := range m.Row(r) {
			b += float64(v) * float64(v)
		}
		if math.Abs(a-b) > 1e-3*a {
			t.Fatalf("rope changed norm of row %d: %g -> %g", r, a, b)
		}
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	m := Random(1, 32, 1, 11)
	orig := m.Clone()
	RoPE(m, 8, []int{0}, 10000)
	if d := MaxAbsDiff(m, orig); d != 0 {
		t.Fatalf("rope at position 0 changed values by %g", d)
	}
}

func TestRoPERelativeShiftInvariance(t *testing.T) {
	// Dot products between rotated q and k depend only on the relative
	// position difference: <R(p)q, R(p+d)k> constant over p.
	q := Random(1, 16, 1, 12)
	k := Random(1, 16, 1, 13)
	dot := func(p, pd int) float64 {
		qr := q.Clone()
		kr := k.Clone()
		RoPE(qr, 16, []int{p}, 10000)
		RoPE(kr, 16, []int{pd}, 10000)
		var acc float64
		for i := range qr.Data {
			acc += float64(qr.Data[i]) * float64(kr.Data[i])
		}
		return acc
	}
	d1 := dot(0, 3)
	d2 := dot(7, 10)
	if math.Abs(d1-d2) > 1e-3 {
		t.Fatalf("rope relative invariance broken: %g vs %g", d1, d2)
	}
}

// Property: (a+b)·c == a·c + b·c — distributivity is the algebraic fact
// the partitioned all-reduce relies on.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(3, 4, 1, seed)
		b := Random(3, 4, 1, seed+1)
		c := Random(4, 5, 1, seed+2)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return MaxAbsDiff(lhs, rhs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: column-partitioned matmul equals full matmul:
// a·b == concat_cols(a·b[:, p0], a·b[:, p1], ...).
func TestPropertyMatMulColumnPartition(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(3, 6, 1, seed)
		b := Random(6, 8, 1, seed+1)
		full := MatMul(a, b)
		parts := ConcatCols(
			MatMul(a, b.SliceCols(0, 3)),
			MatMul(a, b.SliceCols(3, 8)),
		)
		return MaxAbsDiff(full, parts) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inner-dimension-partitioned matmul sums to the full result:
// a·b == a[:, :k]·b[:k, :] + a[:, k:]·b[k:, :].
func TestPropertyMatMulInnerPartition(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(4, 10, 1, seed)
		b := Random(10, 3, 1, seed+1)
		full := MatMul(a, b)
		split := Add(
			MatMul(a.SliceCols(0, 4), b.SliceRows(0, 4)),
			MatMul(a.SliceCols(4, 10), b.SliceRows(4, 10)),
		)
		return MaxAbsDiff(full, split) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAddInPlace(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	AddInPlace(a, b)
	want := []float32{11, 22, 33}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("addinplace[%d] = %g, want %g", i, a.Data[i], want[i])
		}
	}
}

func TestMulAndScale(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	p := Mul(a, b)
	want := []float32{4, 10, 18}
	for i := range want {
		if p.Data[i] != want[i] {
			t.Fatalf("mul[%d] = %g, want %g", i, p.Data[i], want[i])
		}
	}
	p.Scale(0.5)
	for i := range want {
		if p.Data[i] != want[i]/2 {
			t.Fatalf("scale[%d] = %g, want %g", i, p.Data[i], want[i]/2)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, 1, 42)
	b := Random(4, 4, 1, 42)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed produced different matrices")
	}
	c := Random(4, 4, 1, 43)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds produced identical matrices")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	x := Random(128, 512, 1, 1)
	w := Random(512, 512, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, w)
	}
}

// FromSlice wraps data (length rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }
