package numeric

import (
	"testing"
	"testing/quick"

	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/tensor"
)

// gqaCfg is a small grouped-query-attention decoder: 8 query heads
// sharing 4 KV heads.
func gqaCfg() model.Config {
	return model.Config{
		Name: "test-gqa", Arch: model.Decoder,
		E: 32, P: 64, H: 8, KVHeads: 4, F: 48, L: 2,
		Norm: model.RMSNorm, FFN: model.FFNGated,
		RoPE: true, RoPETheta: 10000, NormEps: 1e-5,
		WeightBytes: 1, ActBytes: 1, AccBytes: 4, ReduceBytes: 1,
	}
}

func TestGQADistributedMatchesReference(t *testing.T) {
	cfg := gqaCfg()
	w := model.NewWeights(cfg, 31)
	x := tensor.Random(5, cfg.E, 1, 32)
	ref := model.Forward(w, x, nil)
	for _, n := range []int{1, 2, 4} {
		p, err := partition.NewTensorParallel(cfg, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		e, err := NewExecutor(w, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(ref, e.Forward(x)); d > 1e-4 {
			t.Errorf("n=%d: GQA distributed differs by %g", n, d)
		}
	}
}

func TestGQAAutoregressiveDistributed(t *testing.T) {
	cfg := gqaCfg()
	w := model.NewWeights(cfg, 33)
	const steps = 4
	x := tensor.Random(steps, cfg.E, 1, 34)

	cache := model.NewKVCache(cfg)
	p, _ := partition.NewTensorParallel(cfg, 4)
	e, err := NewExecutor(w, p)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("step %d: GQA AR differs by %g", i, d)
		}
	}
}

// The int32 exchange keeps the 4-chip GQA network bit-exact against
// the single-chip one; the lossy int8 and int16 exchanges stay within
// a bounded deviation of it.
func TestGQAQuantizedInt32Exact(t *testing.T) {
	cfg := gqaCfg()
	w := model.NewWeights(cfg, 35)
	x := tensor.Random(4, cfg.E, 1, 36)
	cal := mustCalibrate(t, w, x)
	p1, _ := partition.NewTensorParallel(cfg, 1)
	ref, err := NewQuantEngine(w, p1, cal, ReduceInt32)
	if err != nil {
		t.Fatal(err)
	}
	refOut := ref.Forward(x)
	p4, _ := partition.NewTensorParallel(cfg, 4)
	e, _ := NewQuantEngine(w, p4, cal, ReduceInt32)
	if d := tensor.MaxAbsDiff(refOut, e.Forward(x)); d != 0 {
		t.Fatalf("GQA int32-reduce differs by %g, want bit-exact", d)
	}
	for _, tc := range []struct {
		name string
		mode ReduceMode
	}{{"int8", ReduceInt8}, {"int16", ReduceInt16}} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewQuantEngine(w, p4, cal, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(refOut, e.Forward(x)); d > 0.25 {
				t.Errorf("%s exchange: GQA deviation %g from the int32 exchange too large", tc.name, d)
			}
		})
	}
}

// Property: GQA equivalence for every legal chip count.
func TestPropertyGQAEquivalence(t *testing.T) {
	cfg := gqaCfg()
	w := model.NewWeights(cfg, 37)
	f := func(nRaw, sRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%cfg.KVHeadCount()
		s := 1 + int(sRaw)%6
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
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
