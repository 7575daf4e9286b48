package quant

import (
	"math"
	"testing"
	"testing/quick"

	"mcudist/internal/tensor"
)

func TestQuantizeRoundTripError(t *testing.T) {
	m := tensor.Random(16, 16, 2, 1)
	q := Quantize(m)
	back := q.Dequantize()
	// Round-trip error is bounded by half a quantization step.
	step := float64(q.Scale)
	if d := tensor.MaxAbsDiff(m, back); d > step/2+1e-6 {
		t.Fatalf("round-trip error %g exceeds half step %g", d, step/2)
	}
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m := tensor.New(3, 3)
	q := Quantize(m)
	for _, v := range q.Data {
		if v != 0 {
			t.Fatal("zero matrix quantized to nonzero")
		}
	}
	if q.Scale <= 0 {
		t.Fatalf("zero matrix scale %g must stay positive", q.Scale)
	}
}

func TestQuantizeUsesFullRange(t *testing.T) {
	m := tensor.New(1, 2)
	m.Set(0, 0, -1)
	m.Set(0, 1, 1)
	q := Quantize(m)
	if q.Data[0] != -127 || q.Data[1] != 127 {
		t.Fatalf("codes = %v, want [-127 127]", q.Data)
	}
}

func TestMatMulQMatchesFloatApproximately(t *testing.T) {
	x := tensor.Random(4, 32, 1, 2)
	w := tensor.Random(32, 8, 1, 3)
	ref := tensor.MatMul(x, w)
	got := MatMulQ(Quantize(x), Quantize(w)).Dequantize()
	// Int8 quantization error for K=32 accumulation stays small
	// relative to the output magnitude.
	if d := tensor.MaxAbsDiff(ref, got); d > 0.2 {
		t.Fatalf("quantized matmul error %g too large", d)
	}
}

func TestAccAddExactPartition(t *testing.T) {
	// The key distributed-inference property: splitting the inner
	// dimension and summing int32 accumulators is EXACT.
	x := tensor.Random(3, 20, 1, 4)
	w := tensor.Random(20, 5, 1, 5)
	qx := Quantize(x)
	qw := Quantize(w)
	full := MatMulQ(qx, qw)

	partial := MatMulQ(qx.SliceCols(0, 8), qw.SliceRows(0, 8))
	p2 := MatMulQ(qx.SliceCols(8, 20), qw.SliceRows(8, 20))
	partial.AddInPlace(p2)

	for i := range full.Data {
		if full.Data[i] != partial.Data[i] {
			t.Fatalf("acc[%d]: full %d != partitioned %d", i, full.Data[i], partial.Data[i])
		}
	}
}

func TestRequantizeSaturates(t *testing.T) {
	a := NewAcc(1, 2, 1)
	a.Data[0] = 1 << 20
	a.Data[1] = -(1 << 20)
	q := a.Requantize(1)
	if q.Data[0] != 127 || q.Data[1] != -128 {
		t.Fatalf("saturation failed: %v", q.Data)
	}
}

func TestRequantizeScaleIdentity(t *testing.T) {
	a := NewAcc(1, 3, 0.5)
	a.Data[0], a.Data[1], a.Data[2] = 10, -20, 40
	q := a.Requantize(0.5)
	want := []int8{10, -20, 40}
	for i := range want {
		if q.Data[i] != want[i] {
			t.Fatalf("requant[%d] = %d, want %d", i, q.Data[i], want[i])
		}
	}
}

func TestSliceSharesScale(t *testing.T) {
	m := tensor.Random(6, 6, 1, 9)
	q := Quantize(m)
	s := q.SliceCols(1, 4)
	if s.Scale != q.Scale {
		t.Fatal("column slice changed scale")
	}
	r := q.SliceRows(2, 5)
	if r.Scale != q.Scale {
		t.Fatal("row slice changed scale")
	}
	for i := 0; i < s.Rows; i++ {
		for j := 0; j < s.Cols; j++ {
			if s.At(i, j) != q.At(i, j+1) {
				t.Fatal("column slice codes differ")
			}
		}
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	q := Quantize(tensor.Random(4, 4, 1, 11))
	for i, f := range []func(){
		func() { q.SliceCols(-1, 2) },
		func() { q.SliceCols(2, 5) },
		func() { q.SliceRows(3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad slice accepted", i)
				}
			}()
			f()
		}()
	}
}

func TestQuantizeWithScaleConsistentAcrossSlices(t *testing.T) {
	m := tensor.Random(8, 8, 1, 10)
	full := Quantize(m)
	left := QuantizeWithScale(m.SliceCols(0, 4), full.Scale)
	for r := 0; r < 8; r++ {
		for c := 0; c < 4; c++ {
			if left.At(r, c) != full.At(r, c) {
				t.Fatal("slice-then-quantize differs from quantize-then-slice")
			}
		}
	}
}

// Property: for any K split point, inner-partitioned integer matmul with
// int32 reduction is exactly equal to the unpartitioned product.
func TestPropertyInnerPartitionExact(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		const k = 24
		split := 1 + int(splitRaw)%(k-1)
		x := tensor.Random(2, k, 1, seed)
		w := tensor.Random(k, 3, 1, seed+1)
		qx := Quantize(x)
		qw := Quantize(w)
		full := MatMulQ(qx, qw)
		p := MatMulQ(qx.SliceCols(0, split), qw.SliceRows(0, split))
		p.AddInPlace(MatMulQ(qx.SliceCols(split, k), qw.SliceRows(split, k)))
		for i := range full.Data {
			if full.Data[i] != p.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: column-partitioned integer matmul concatenates exactly.
func TestPropertyColumnPartitionExact(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		const n = 12
		split := 1 + int(splitRaw)%(n-1)
		x := tensor.Random(2, 8, 1, seed)
		w := tensor.Random(8, n, 1, seed+1)
		qx := Quantize(x)
		qw := Quantize(w)
		full := MatMulQ(qx, qw)
		left := MatMulQ(qx, qw.SliceCols(0, split))
		right := MatMulQ(qx, qw.SliceCols(split, n))
		for i := 0; i < full.Rows; i++ {
			for j := 0; j < n; j++ {
				var v int32
				if j < split {
					v = left.Row(i)[j]
				} else {
					v = right.Row(i)[j-split]
				}
				if full.Row(i)[j] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: requantization is monotone in the accumulator value.
func TestPropertyRequantizeMonotone(t *testing.T) {
	f := func(a32, b32 int32) bool {
		a := NewAcc(1, 2, 0.01)
		a.Data[0], a.Data[1] = a32, b32
		q := a.Requantize(0.02)
		if a32 <= b32 {
			return q.Data[0] <= q.Data[1]
		}
		return q.Data[0] >= q.Data[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDequantizeAcc(t *testing.T) {
	a := NewAcc(1, 2, 0.5)
	a.Data[0], a.Data[1] = 4, -6
	m := a.Dequantize()
	if m.Data[0] != 2 || m.Data[1] != -3 {
		t.Fatalf("acc dequantize = %v, want [2 -3]", m.Data)
	}
}

func TestAccAddMismatchPanics(t *testing.T) {
	a := NewAcc(1, 2, 1)
	b := NewAcc(1, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("scale mismatch did not panic")
		}
	}()
	a.AddInPlace(b)
}

func BenchmarkMatMulQ(b *testing.B) {
	x := Quantize(tensor.Random(16, 512, 1, 1))
	w := Quantize(tensor.Random(512, 512, 1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulQ(x, w)
	}
}

func init() {
	// Guard against platforms where math.Round might misbehave for
	// the clamp range; fail loudly at package load in that case.
	if clampInt8(math.Round(127.4)) != 127 || clampInt8(math.Round(-128.4)) != -128 {
		panic("quant: clamp sanity check failed")
	}
}

// At returns element (r, c).
func (q *QMat) At(r, c int) int8 { return q.Data[r*q.Cols+c] }
