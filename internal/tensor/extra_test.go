package tensor

import (
	"testing"
	"testing/quick"
)

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative shape accepted")
		}
	}()
	New(-1, 4)
}

func TestSliceBoundsPanics(t *testing.T) {
	m := New(4, 4)
	cases := []func(){
		func() { m.SliceCols(-1, 2) },
		func() { m.SliceCols(2, 5) },
		func() { m.SliceCols(3, 2) },
		func() { m.SliceRows(-1, 2) },
		func() { m.SliceRows(2, 5) },
	}
	for i, f := range cases {
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

func TestConcatMismatchPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("row mismatch accepted")
			}
		}()
		ConcatCols(New(2, 3), New(3, 3))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("col mismatch accepted")
			}
		}()
		ConcatRows(New(2, 3), New(2, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty concat accepted")
			}
		}()
		ConcatCols()
	}()
}

func TestEmptyMatrixOperations(t *testing.T) {
	empty := New(0, 8)
	full := Random(3, 8, 1, 1)
	joined := ConcatRows(empty, full)
	if joined.Rows != 3 {
		t.Fatalf("rows = %d", joined.Rows)
	}
	if MaxAbsDiff(joined, full) != 0 {
		t.Fatal("empty concat changed values")
	}
}

func TestRoPEValidation(t *testing.T) {
	m := Random(2, 32, 1, 1)
	cases := []func(){
		func() { RoPE(m, 7, []int{0, 1}, 1e4) },           // odd head dim
		func() { RoPE(m, 0, []int{0, 1}, 1e4) },           // zero head dim
		func() { RoPE(m, 12, []int{0, 1}, 1e4) },          // 32 % 12 != 0
		func() { RoPE(m, 8, []int{0}, 1e4) },              // positions length
		func() { RoPE(Random(2, 30, 1, 1), 8, nil, 1e4) }, // cols not multiple
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid rope accepted", i)
				}
			}()
			f()
		}()
	}
}

func TestLayerNormAffineLengthPanics(t *testing.T) {
	m := Random(2, 8, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("short affine accepted")
		}
	}()
	LayerNorm(m, make([]float32, 4), make([]float32, 8), 1e-5)
}

// Property: softmax is invariant to adding a constant to a row.
func TestPropertySoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64, shiftRaw uint8) bool {
		shift := float32(shiftRaw) / 8
		a := Random(2, 16, 2, seed)
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		Softmax(a)
		Softmax(b)
		return MaxAbsDiff(a, b) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMulT(a, b) == MatMulT over row-partitioned b stacked.
func TestPropertyMatMulTRowPartition(t *testing.T) {
	f := func(seed int64) bool {
		a := Random(3, 8, 1, seed)
		b := Random(6, 8, 1, seed+1)
		full := MatMulT(a, b)
		parts := ConcatCols(MatMulT(a, b.SliceRows(0, 2)), MatMulT(a, b.SliceRows(2, 6)))
		return MaxAbsDiff(full, parts) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(3, 4)
	m.Set(2, 3, 42)
	if m.At(2, 3) != 42 {
		t.Fatal("At/Set mismatch")
	}
	if m.Row(2)[3] != 42 {
		t.Fatal("Row view inconsistent")
	}
}
