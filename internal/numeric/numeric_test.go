package numeric

import (
	"testing"
	"testing/quick"

	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/quant"
	"mcudist/internal/tensor"
)

// testCfg is a small decoder whose dimensions exercise uneven splits.
func testCfg() model.Config {
	return model.Config{
		Name: "test-decoder", Arch: model.Decoder,
		E: 32, P: 32, H: 4, F: 64, L: 3,
		Norm: model.RMSNorm, FFN: model.FFNGELU,
		RoPE: true, RoPETheta: 10000, NormEps: 1e-5,
		WeightBytes: 1, ActBytes: 1, AccBytes: 4, ReduceBytes: 1,
	}
}

func encoderCfg() model.Config {
	return model.Config{
		Name: "test-encoder", Arch: model.Encoder,
		E: 32, P: 32, H: 4, F: 48, L: 2,
		Norm: model.LayerNorm, FFN: model.FFNGELU,
		NormEps:     1e-5,
		WeightBytes: 1, ActBytes: 1, AccBytes: 4, ReduceBytes: 1,
	}
}

func mustCalibrate(t *testing.T, w *model.Weights, x *tensor.Mat) *Calibration {
	t.Helper()
	cal, err := Calibrate(w, x)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func mustExec(t *testing.T, w *model.Weights, n int) *Executor {
	t.Helper()
	p, err := partition.NewTensorParallel(w.Config, n)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(w, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The core correctness claim of the paper's scheme: the distributed
// forward pass equals the single-device reference.
func TestDistributedMatchesReferencePrompt(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 1)
	x := tensor.Random(6, cfg.E, 1, 2)
	ref := model.Forward(w, x, nil)
	for _, n := range []int{1, 2, 4} {
		e := mustExec(t, w, n)
		got := e.Forward(x)
		if d := tensor.MaxAbsDiff(ref, got); d > 1e-4 {
			t.Errorf("n=%d: distributed differs from reference by %g", n, d)
		}
	}
}

func TestDistributedMatchesReferenceEncoder(t *testing.T) {
	cfg := encoderCfg()
	w := model.NewWeights(cfg, 3)
	x := tensor.Random(5, cfg.E, 1, 4)
	ref := model.Forward(w, x, nil)
	for _, n := range []int{1, 2, 4} {
		e := mustExec(t, w, n)
		got := e.Forward(x)
		if d := tensor.MaxAbsDiff(ref, got); d > 1e-4 {
			t.Errorf("n=%d: encoder distributed differs by %g", n, d)
		}
	}
}

func TestDistributedMatchesReferenceGatedFFN(t *testing.T) {
	cfg := testCfg()
	cfg.FFN = model.FFNGated
	w := model.NewWeights(cfg, 5)
	x := tensor.Random(4, cfg.E, 1, 6)
	ref := model.Forward(w, x, nil)
	e := mustExec(t, w, 4)
	if d := tensor.MaxAbsDiff(ref, e.Forward(x)); d > 1e-4 {
		t.Errorf("gated distributed differs by %g", d)
	}
}

// Autoregressive generation with distributed KV caches must track the
// reference cache step by step.
func TestDistributedAutoregressive(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 7)
	const steps = 5
	x := tensor.Random(steps, cfg.E, 1, 8)

	cache := model.NewKVCache(cfg)
	e := mustExec(t, w, 4)
	for i := 0; i < steps; i++ {
		row := x.SliceRows(i, i+1)
		var ref, got *tensor.Mat
		if i == 0 {
			ref = model.Forward(w, row, cache)
			got = e.Forward(row)
		} else {
			ref = model.ForwardStep(w, row, cache)
			got = e.ForwardStep(row)
		}
		if d := tensor.MaxAbsDiff(ref, got); d > 1e-4 {
			t.Fatalf("step %d: distributed differs by %g", i, d)
		}
	}
	if e.CacheLen() != steps {
		t.Fatalf("distributed cache length %d, want %d", e.CacheLen(), steps)
	}
}

// Prefill with a prompt, then continue stepping — the paper's actual
// usage pattern (prompt mode then autoregressive mode).
func TestDistributedPrefillThenStep(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 9)
	x := tensor.Random(6, cfg.E, 1, 10)

	cache := model.NewKVCache(cfg)
	model.Forward(w, x.SliceRows(0, 5), cache)
	ref := model.ForwardStep(w, x.SliceRows(5, 6), cache)

	e := mustExec(t, w, 2)
	e.Forward(x.SliceRows(0, 5))
	got := e.ForwardStep(x.SliceRows(5, 6))
	if d := tensor.MaxAbsDiff(ref, got); d > 1e-4 {
		t.Fatalf("prefill+step differs by %g", d)
	}
}

// Exactly two reduces and two broadcasts per block — the paper's
// synchronization count.
func TestTwoSyncsPerBlockNumeric(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 11)
	e := mustExec(t, w, 4)
	e.Forward(tensor.Random(3, cfg.E, 1, 12))
	if e.Stats.Reduces != 2*cfg.L || e.Stats.Broadcasts != 2*cfg.L {
		t.Fatalf("reduces=%d broadcasts=%d, want %d each",
			e.Stats.Reduces, e.Stats.Broadcasts, 2*cfg.L)
	}
}

// Property: distributed equivalence holds for random chip counts and
// sequence lengths, including uneven head splits.
func TestPropertyDistributedEquivalence(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 13)
	f := func(nRaw, sRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%cfg.H
		s := 1 + int(sRaw)%8
		x := tensor.Random(s, cfg.E, 1, seed)
		ref := model.Forward(w, x, nil)
		p, err := partition.NewTensorParallel(cfg, n)
		if err != nil {
			return false
		}
		e, err := NewExecutor(w, p)
		if err != nil {
			return false
		}
		return tensor.MaxAbsDiff(ref, e.Forward(x)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorRejectsBaselinePlans(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 1)
	p, _ := partition.NewReplicated(cfg, 2)
	if _, err := NewExecutor(w, p); err == nil {
		t.Fatal("replicated plan accepted by tensor-parallel executor")
	}
}

// ---- quantized paths ----

// The int32-reduce distributed quantized network must be EXACTLY the
// single-chip quantized network: int32 partial sums commute.
func TestQuantizedInt32ReduceBitExact(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 15)
	x := tensor.Random(5, cfg.E, 1, 16)
	cal := mustCalibrate(t, w, x)

	p1, _ := partition.NewTensorParallel(cfg, 1)
	ref, err := NewQuantEngine(w, p1, cal, ReduceInt32)
	if err != nil {
		t.Fatal(err)
	}
	refOut := ref.Forward(x)

	for _, n := range []int{2, 4} {
		p, _ := partition.NewTensorParallel(cfg, n)
		e, err := NewQuantEngine(w, p, cal, ReduceInt32)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Forward(x)
		if d := tensor.MaxAbsDiff(refOut, got); d != 0 {
			t.Errorf("n=%d: int32-reduce output differs by %g, want bit-exact", n, d)
		}
	}
}

func TestQuantizedEncoderInt32Exact(t *testing.T) {
	cfg := encoderCfg()
	w := model.NewWeights(cfg, 17)
	x := tensor.Random(4, cfg.E, 1, 18)
	cal := mustCalibrate(t, w, x)
	p1, _ := partition.NewTensorParallel(cfg, 1)
	ref, _ := NewQuantEngine(w, p1, cal, ReduceInt32)
	refOut := ref.Forward(x)
	p4, _ := partition.NewTensorParallel(cfg, 4)
	e, _ := NewQuantEngine(w, p4, cal, ReduceInt32)
	if d := tensor.MaxAbsDiff(refOut, e.Forward(x)); d != 0 {
		t.Fatalf("encoder int32-reduce differs by %g", d)
	}
}

// The deployed int8-reduce flow trades exactness for 4× less link
// traffic; its deviation is bounded by a few quantization steps per
// reduce.
func TestQuantizedInt8ReduceClose(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 19)
	x := tensor.Random(5, cfg.E, 1, 20)
	cal := mustCalibrate(t, w, x)

	p, _ := partition.NewTensorParallel(cfg, 4)
	exact, _ := NewQuantEngine(w, p, cal, ReduceInt32)
	approx, _ := NewQuantEngine(w, p, cal, ReduceInt8)
	a := exact.Forward(x)
	b := approx.Forward(x)

	// Tolerance: accumulated requantization error across blocks; the
	// output magnitude is O(1), so a few percent absolute.
	if d := tensor.MaxAbsDiff(a, b); d > 0.2 {
		t.Fatalf("int8-reduce deviates by %g from int32-reduce", d)
	}
}

// The int16 exchange must always deviate no more than the int8
// exchange from the exact int32 baseline.
func TestQuantizedInt16BetterThanInt8(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 51)
	x := tensor.Random(5, cfg.E, 1, 52)
	cal := mustCalibrate(t, w, x)
	p, _ := partition.NewTensorParallel(cfg, 4)

	run := func(mode ReduceMode) *tensor.Mat {
		e, err := NewQuantEngine(w, p, cal, mode)
		if err != nil {
			t.Fatal(err)
		}
		return e.Forward(x)
	}
	exact := run(ReduceInt32)
	d8 := tensor.MaxAbsDiff(exact, run(ReduceInt8))
	d16 := tensor.MaxAbsDiff(exact, run(ReduceInt16))
	if d16 > d8 {
		t.Fatalf("int16 deviation %g exceeds int8 %g", d16, d8)
	}
	if d16 > 0.05 {
		t.Fatalf("int16 deviation %g too large for a 3-block model", d16)
	}
}

func TestRequantize16Saturates(t *testing.T) {
	a := quant.NewAcc(1, 2, 1)
	a.Data[0] = 1 << 30
	a.Data[1] = -(1 << 30)
	q := requantize16(a, 1)
	if q[0] != 32767 || q[1] != -32768 {
		t.Fatalf("int16 saturation failed: %v", q)
	}
}

func TestSaturatingAdd16(t *testing.T) {
	a := []int16{30000, -30000, 5}
	b := []int16{30000, -30000, 7}
	saturatingAdd16(a, b)
	if a[0] != 32767 || a[1] != -32768 || a[2] != 12 {
		t.Fatalf("saturating add16: %v", a)
	}
}

// Quantized inference must approximate the float reference.
func TestQuantizedApproximatesFloat(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 21)
	x := tensor.Random(5, cfg.E, 1, 22)
	ref := model.Forward(w, x, nil)
	cal := mustCalibrate(t, w, x)
	p, _ := partition.NewTensorParallel(cfg, 4)
	e, _ := NewQuantEngine(w, p, cal, ReduceInt32)
	got := e.Forward(x)
	if d := tensor.MaxAbsDiff(ref, got); d > 0.5 {
		t.Fatalf("quantized output deviates by %g from float reference", d)
	}
}

// Quantized autoregressive stepping stays consistent with the
// quantized single-chip reference.
func TestQuantizedAutoregressiveExact(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 23)
	const steps = 4
	x := tensor.Random(steps, cfg.E, 1, 24)
	cal := mustCalibrate(t, w, x)

	p1, _ := partition.NewTensorParallel(cfg, 1)
	ref, _ := NewQuantEngine(w, p1, cal, ReduceInt32)
	p4, _ := partition.NewTensorParallel(cfg, 4)
	e, _ := NewQuantEngine(w, p4, cal, ReduceInt32)

	for i := 0; i < steps; i++ {
		row := x.SliceRows(i, i+1)
		var a, b *tensor.Mat
		if i == 0 {
			a = ref.Forward(row)
			b = e.Forward(row)
		} else {
			a = ref.ForwardStep(row)
			b = e.ForwardStep(row)
		}
		if d := tensor.MaxAbsDiff(a, b); d != 0 {
			t.Fatalf("step %d: quantized AR differs by %g", i, d)
		}
	}
}

func TestCalibrationScalesPositive(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 25)
	cal := mustCalibrate(t, w, tensor.Random(4, cfg.E, 1, 26))
	for b := 0; b < cfg.L; b++ {
		for _, s := range []float32{cal.MHSAIn[b], cal.AttOut[b], cal.AttProj[b], cal.FCIn[b], cal.Mid[b], cal.FCOut[b]} {
			if s <= 0 {
				t.Fatalf("block %d has non-positive scale", b)
			}
		}
	}
}

func TestSliceBlockShapes(t *testing.T) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 27)
	cb := mustExec(t, w, 4).chips[1][0]
	if cb.WQ.(*tensor.Mat).Cols != cfg.P/4 || cb.WO.(*tensor.Mat).Rows != cfg.P/4 {
		t.Fatal("attention slice shapes wrong")
	}
	if cb.W1.(*tensor.Mat).Cols != cfg.F/4 || cb.W2.(*tensor.Mat).Rows != cfg.F/4 {
		t.Fatal("FFN slice shapes wrong")
	}
	// One chip's share spans every matrix: it is the matrix, not a copy.
	bw, one := w.Blocks[0], mustExec(t, w, 1).chips[0][0]
	for _, m := range []struct{ got, full *tensor.Mat }{
		{one.WQ.(*tensor.Mat), bw.WQ}, {one.WK.(*tensor.Mat), bw.WK}, {one.WV.(*tensor.Mat), bw.WV},
		{one.WO.(*tensor.Mat), bw.WO}, {one.W1.(*tensor.Mat), bw.W1}, {one.W2.(*tensor.Mat), bw.W2},
	} {
		if m.got != m.full {
			t.Fatal("a one-chip plan copied a weight matrix")
		}
	}
}

func BenchmarkDistributedForward(b *testing.B) {
	cfg := testCfg()
	w := model.NewWeights(cfg, 1)
	p, _ := partition.NewTensorParallel(cfg, 4)
	e, _ := NewExecutor(w, p)
	x := tensor.Random(4, cfg.E, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Rebuild when caches grow to keep iterations comparable.
		e, _ = NewExecutor(w, p)
		e.Forward(x)
	}
}
