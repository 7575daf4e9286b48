package quant

import (
	"testing"
	"testing/quick"

	"mcudist/internal/tensor"
)

// illConditioned builds a weight matrix whose columns differ in
// magnitude by 100× — the case per-channel quantization exists for.
func illConditioned(rows, cols int, seed int64) *tensor.Mat {
	m := tensor.Random(rows, cols, 1, seed)
	for c := 0; c < cols; c++ {
		scale := float32(1)
		if c%2 == 0 {
			scale = 0.01
		}
		for r := 0; r < rows; r++ {
			m.Set(r, c, m.At(r, c)*scale)
		}
	}
	return m
}

func TestPerChannelBeatsPerTensorOnIllConditioned(t *testing.T) {
	w := illConditioned(32, 16, 1)
	pt := Quantize(w).Dequantize()
	pc := QuantizePerChannel(w).Dequantize()
	ePT := tensor.MaxAbsDiff(w, pt)
	ePC := tensor.MaxAbsDiff(w, pc)
	// Per-tensor error on the small columns is bounded by the big
	// columns' step; per-channel adapts per column.
	if ePC >= ePT {
		t.Fatalf("per-channel error %g not below per-tensor %g", ePC, ePT)
	}
	// Relative error of SMALL columns is the real win: check column 0.
	var smallColErr float64
	for r := 0; r < w.Rows; r++ {
		d := float64(w.At(r, 0) - pc.At(r, 0))
		if d < 0 {
			d = -d
		}
		if d > smallColErr {
			smallColErr = d
		}
	}
	if smallColErr > 0.01/127+1e-9 {
		t.Fatalf("small-column error %g exceeds its own half step", smallColErr)
	}
}

func TestPerChannelRoundTripScales(t *testing.T) {
	w := tensor.Random(8, 4, 1, 2)
	q := QuantizePerChannel(w)
	if len(q.Scales) != 4 {
		t.Fatalf("scales = %d", len(q.Scales))
	}
	back := q.Dequantize()
	for c := 0; c < 4; c++ {
		step := float64(q.Scales[c])
		for r := 0; r < 8; r++ {
			d := float64(w.At(r, c) - back.At(r, c))
			if d < 0 {
				d = -d
			}
			if d > step/2+1e-6 {
				t.Fatalf("(%d,%d) error %g exceeds half step %g", r, c, d, step/2)
			}
		}
	}
}

func TestMatMulQPCMatchesFloat(t *testing.T) {
	x := tensor.Random(4, 32, 1, 3)
	w := illConditioned(32, 8, 4)
	ref := tensor.MatMul(x, w)
	got := MatMulQPC(Quantize(x), QuantizePerChannel(w)).Dequantize()
	if d := tensor.MaxAbsDiff(ref, got); d > 0.05 {
		t.Fatalf("per-channel matmul error %g", d)
	}
}

// The paper-relevant property: the head-dimension (column) partition
// of per-channel-quantized weights is exact.
func TestPerChannelColumnPartitionExact(t *testing.T) {
	x := tensor.Random(3, 16, 1, 5)
	w := illConditioned(16, 12, 6)
	qx := Quantize(x)
	qw := QuantizePerChannel(w)
	full := MatMulQPC(qx, qw)
	for _, part := range [][2]int{{0, 5}, {5, 12}} {
		if !colsMatch(full, MatMulQPC(qx, qw.SliceCols(part[0], part[1])), part[0]) {
			t.Fatalf("columns [%d, %d) differ from the unpartitioned product", part[0], part[1])
		}
	}
}

// colsMatch reports whether part holds full's columns from off on,
// accumulators and per-channel scales both.
func colsMatch(full, part *AccPC, off int) bool {
	if part.Rows != full.Rows || off+part.Cols > full.Cols {
		return false
	}
	for r := 0; r < part.Rows; r++ {
		for c := 0; c < part.Cols; c++ {
			if part.Row(r)[c] != full.Row(r)[off+c] {
				return false
			}
		}
	}
	for c, s := range part.WScales {
		if s != full.WScales[off+c] {
			return false
		}
	}
	return true
}

// And the inner-dimension (row) partition with int32 reduction is
// exact — the all-reduce property, now with per-channel scales.
func TestPerChannelInnerPartitionExact(t *testing.T) {
	x := tensor.Random(3, 20, 1, 7)
	w := illConditioned(20, 6, 8)
	qx := Quantize(x)
	qw := QuantizePerChannel(w)
	full := MatMulQPC(qx, qw)

	p1 := MatMulQPC(qx.SliceCols(0, 8), qw.SliceRows(0, 8))
	p2 := MatMulQPC(qx.SliceCols(8, 20), qw.SliceRows(8, 20))
	p1.AddInPlace(p2)
	for i := range full.Data {
		if full.Data[i] != p1.Data[i] {
			t.Fatalf("acc[%d]: %d != %d", i, full.Data[i], p1.Data[i])
		}
	}
}

// Property: both partitions stay exact for random split points.
func TestPropertyPerChannelPartitionExact(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		const k, n = 24, 10
		x := tensor.Random(2, k, 1, seed)
		w := illConditioned(k, n, seed+1)
		qx := Quantize(x)
		qw := QuantizePerChannel(w)
		full := MatMulQPC(qx, qw)

		ks := 1 + int(splitRaw)%(k-1)
		inner := MatMulQPC(qx.SliceCols(0, ks), qw.SliceRows(0, ks))
		inner.AddInPlace(MatMulQPC(qx.SliceCols(ks, k), qw.SliceRows(ks, k)))

		ns := 1 + int(splitRaw>>4)%(n-1)
		for i := range full.Data {
			if full.Data[i] != inner.Data[i] {
				return false
			}
		}
		return colsMatch(full, MatMulQPC(qx, qw.SliceCols(0, ns)), 0) &&
			colsMatch(full, MatMulQPC(qx, qw.SliceCols(ns, n)), ns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAccPCMismatchPanics(t *testing.T) {
	w := tensor.Random(8, 4, 1, 9)
	a := MatMulQPC(Quantize(tensor.Random(2, 8, 1, 10)), QuantizePerChannel(w))
	b := MatMulQPC(QuantizeWithScale(tensor.Random(2, 8, 1, 10), a.ActScale*2), QuantizePerChannel(w))
	defer func() {
		if recover() == nil {
			t.Error("act-scale mismatch accepted")
		}
	}()
	a.AddInPlace(b)
}

func TestPerChannelSliceBounds(t *testing.T) {
	q := QuantizePerChannel(tensor.Random(4, 4, 1, 11))
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

func TestPerChannelZeroColumn(t *testing.T) {
	m := tensor.New(4, 2)
	m.Set(0, 1, 1)
	q := QuantizePerChannel(m)
	if q.Scales[0] <= 0 {
		t.Fatal("zero column scale must stay positive")
	}
	back := q.Dequantize()
	for r := 0; r < 4; r++ {
		if back.At(r, 0) != 0 {
			t.Fatal("zero column corrupted")
		}
	}
}

// Dequantize converts back to float32.
func (q *QCMat) Dequantize() *tensor.Mat {
	out := tensor.New(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		row := q.Row(r)
		orow := out.Row(r)
		for c := range row {
			orow[c] = float32(row[c]) * q.Scales[c]
		}
	}
	return out
}
