package model

import (
	"math"
	"strings"
	"testing"

	"mcudist/internal/tensor"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{TinyLlama42M(), TinyLlamaScaled64(), MobileBERT512()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"tinyllama":   "tinyllama-42m",
		"TinyLlama":   "tinyllama-42m",
		"scaled":      "tinyllama-scaled64",
		"tinyllama64": "tinyllama-scaled64",
		"MobileBERT":  "mobilebert-512",
		"smollm":      "smollm-135m",
		"EDGELLAMA":   "edgellama-1b",
	} {
		cfg, err := ByName(name)
		if err != nil || cfg.Name != want {
			t.Errorf("ByName(%q) = %q, %v; want %q", name, cfg.Name, err, want)
		}
	}
	_, err := ByName("llama")
	if err == nil {
		t.Fatal("ByName accepted an unknown name")
	}
	for _, name := range []string{"tinyllama", "scaled", "mobilebert", "smollm", "edgellama"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %s", err, name)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Autoregressive, Prompt} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMode("AR"); err != nil || got != Autoregressive {
		t.Errorf("ParseMode(AR) = %v, %v", got, err)
	}
	for _, bad := range []string{"p", "foo", ""} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}

func TestTinyLlamaMatchesPaperGeometry(t *testing.T) {
	cfg := TinyLlama42M()
	if cfg.E != 512 || cfg.F != 2048 || cfg.L != 8 || cfg.H != 8 {
		t.Fatalf("geometry %+v does not match the paper (E=512,F=2048,L=8,H=8)", cfg)
	}
	// 4·E·P + 2·E·F = 3 MiB of int8 weights per block.
	if got := cfg.BlockWeightBytes(); got != 3*1024*1024 {
		t.Fatalf("block weight bytes = %d, want 3 MiB", got)
	}
	if got := cfg.TotalWeightBytes(); got != 24*1024*1024 {
		t.Fatalf("total weight bytes = %d, want 24 MiB", got)
	}
}

func TestScaledModelKeepsByteSizes(t *testing.T) {
	base, scaled := TinyLlama42M(), TinyLlamaScaled64()
	if scaled.H != 64 {
		t.Fatalf("scaled heads = %d, want 64", scaled.H)
	}
	if base.BlockWeightBytes() != scaled.BlockWeightBytes() {
		t.Fatal("scaling head count changed weight bytes; paper keeps other parameters constant")
	}
	if scaled.HeadDim() != 8 {
		t.Fatalf("scaled head dim = %d, want 8", scaled.HeadDim())
	}
}

func TestMobileBERTGeometry(t *testing.T) {
	cfg := MobileBERT512()
	if cfg.E != 512 || cfg.F != 512 || cfg.H != 4 {
		t.Fatalf("geometry %+v does not match the paper (E=F=512,H=4)", cfg)
	}
	if got := cfg.BlockWeightBytes(); got != 1536*1024 {
		t.Fatalf("block weight bytes = %d, want 1.5 MiB", got)
	}
	if PaperSeqLen(cfg, Prompt) != 268 {
		t.Fatal("MobileBERT paper sequence length is 268")
	}
}

func TestPaperSeqLens(t *testing.T) {
	ll := TinyLlama42M()
	if PaperSeqLen(ll, Autoregressive) != 128 {
		t.Error("TinyLlama AR seq len should be 128")
	}
	if PaperSeqLen(ll, Prompt) != 16 {
		t.Error("TinyLlama prompt seq len should be 16")
	}
}

func TestKVBytes(t *testing.T) {
	cfg := TinyLlama42M()
	// 2 × S × P int8 per block.
	if got := cfg.KVBytesPerBlock(128); got != 2*128*512 {
		t.Fatalf("KV bytes per block = %d", got)
	}
	if got := cfg.KVBytesTotal(128); got != 8*2*128*512 {
		t.Fatalf("KV bytes total = %d", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.E = 0 },
		func(c *Config) { c.H = 3 },   // P % H != 0
		func(c *Config) { c.P = 500 }, // not divisible by 8 heads
		func(c *Config) { c.WeightBytes = 0 },
		func(c *Config) { c.NormEps = 0 },
		func(c *Config) { c.RoPETheta = 0 },
	}
	for i, mut := range bad {
		cfg := TinyLlama42M()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWeightsShapes(t *testing.T) {
	cfg := TinyLlama42M()
	cfg.L = 2
	w := NewWeights(cfg, 1)
	if len(w.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(w.Blocks))
	}
	b := w.Blocks[0]
	if b.WQ.Rows != cfg.E || b.WQ.Cols != cfg.P {
		t.Fatal("WQ shape wrong")
	}
	if b.WO.Rows != cfg.P || b.WO.Cols != cfg.E {
		t.Fatal("WO shape wrong")
	}
	if b.W1.Cols != cfg.F || b.W2.Rows != cfg.F {
		t.Fatal("FFN shapes wrong")
	}
	if b.W3 != nil {
		t.Fatal("GELU FFN should have no gate matrix")
	}
	if b.HasBiases() {
		t.Fatal("RMSNorm model should not carry biases")
	}
}

func TestEncoderWeightsHaveBiases(t *testing.T) {
	cfg := MobileBERT512()
	cfg.L = 1
	w := NewWeights(cfg, 2)
	if !w.Blocks[0].HasBiases() {
		t.Fatal("LayerNorm model should carry biases")
	}
	if len(w.Blocks[0].B1) != cfg.F || len(w.Blocks[0].BO) != cfg.E {
		t.Fatal("bias lengths wrong")
	}
}

func TestGatedWeightsHaveGate(t *testing.T) {
	cfg := TinyLlama42M()
	cfg.FFN = FFNGated
	cfg.L = 1
	w := NewWeights(cfg, 3)
	if w.Blocks[0].W3 == nil {
		t.Fatal("gated FFN missing W3")
	}
}

func TestWeightsDeterministic(t *testing.T) {
	cfg := TinyLlama42M()
	cfg.L = 1
	a := NewWeights(cfg, 7)
	b := NewWeights(cfg, 7)
	if tensor.MaxAbsDiff(a.Blocks[0].WQ, b.Blocks[0].WQ) != 0 {
		t.Fatal("same seed gave different weights")
	}
	c := NewWeights(cfg, 8)
	if tensor.MaxAbsDiff(a.Blocks[0].WQ, c.Blocks[0].WQ) == 0 {
		t.Fatal("different seeds gave identical weights")
	}
}

// smallCfg returns a miniature decoder for fast functional tests.
func smallCfg() Config {
	return Config{
		Name: "test-decoder", Arch: Decoder,
		E: 32, P: 32, H: 4, F: 64, L: 2,
		Norm: RMSNorm, FFN: FFNGELU,
		RoPE: true, RoPETheta: 10000, NormEps: 1e-5,
		WeightBytes: 1, ActBytes: 1, AccBytes: 4, ReduceBytes: 1,
	}
}

func TestForwardShapes(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 1)
	x := tensor.Random(5, cfg.E, 1, 2)
	out := Forward(w, x, nil)
	if out.Rows != 5 || out.Cols != cfg.E {
		t.Fatalf("output shape %dx%d", out.Rows, out.Cols)
	}
}

func TestForwardDeterministic(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 1)
	x := tensor.Random(4, cfg.E, 1, 2)
	a := Forward(w, x, nil)
	b := Forward(w, x, nil)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("forward is not deterministic")
	}
}

// The central KV-cache correctness property: processing a prompt and
// then stepping token-by-token must equal processing the whole
// sequence at once (last row).
func TestAutoregressiveMatchesPrompt(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 5)
	const s = 6
	x := tensor.Random(s, cfg.E, 1, 9)

	full := Forward(w, x, nil)

	cache := NewKVCache(cfg)
	var last *tensor.Mat
	for i := 0; i < s; i++ {
		row := x.SliceRows(i, i+1)
		if i == 0 {
			last = Forward(w, row, cache)
		} else {
			last = ForwardStep(w, row, cache)
		}
	}
	if cache.Len() != s {
		t.Fatalf("cache length %d, want %d", cache.Len(), s)
	}
	fullLast := full.SliceRows(s-1, s)
	if d := tensor.MaxAbsDiff(fullLast, last); d > 1e-4 {
		t.Fatalf("AR output differs from prompt output by %g", d)
	}
}

// Prefill with a multi-token prompt, then continue stepping.
func TestPrefillThenStep(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 6)
	const s = 5
	x := tensor.Random(s, cfg.E, 1, 10)

	full := Forward(w, x, nil)

	cache := NewKVCache(cfg)
	Forward(w, x.SliceRows(0, s-1), cache)
	last := ForwardStep(w, x.SliceRows(s-1, s), cache)
	if d := tensor.MaxAbsDiff(full.SliceRows(s-1, s), last); d > 1e-4 {
		t.Fatalf("prefill+step differs from full prompt by %g", d)
	}
}

// Causality: future tokens must not influence earlier outputs.
func TestDecoderCausality(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 7)
	x := tensor.Random(6, cfg.E, 1, 11)
	full := Forward(w, x, nil)

	y := x.Clone()
	// Perturb the last token only.
	for i := range y.Row(5) {
		y.Row(5)[i] += 1
	}
	pert := Forward(w, y, nil)
	if d := tensor.MaxAbsDiff(full.SliceRows(0, 5), pert.SliceRows(0, 5)); d != 0 {
		t.Fatalf("future token affected past outputs by %g", d)
	}
	if tensor.MaxAbsDiff(full.SliceRows(5, 6), pert.SliceRows(5, 6)) == 0 {
		t.Fatal("perturbation had no effect at its own position")
	}
}

// Encoders are bidirectional: perturbing the last token must change
// earlier outputs.
func TestEncoderBidirectional(t *testing.T) {
	cfg := MobileBERT512()
	cfg.L = 1
	cfg.E, cfg.P, cfg.F = 32, 32, 32
	cfg.H = 4
	w := NewWeights(cfg, 8)
	x := tensor.Random(4, cfg.E, 1, 12)
	a := Forward(w, x, nil)
	y := x.Clone()
	for i := range y.Row(3) {
		y.Row(3)[i] += 1
	}
	b := Forward(w, y, nil)
	if tensor.MaxAbsDiff(a.SliceRows(0, 3), b.SliceRows(0, 3)) == 0 {
		t.Fatal("encoder attention is not bidirectional")
	}
}

func TestGatedFFNForwardDiffers(t *testing.T) {
	cfg := smallCfg()
	w1 := NewWeights(cfg, 9)
	cfg2 := cfg
	cfg2.FFN = FFNGated
	w2 := NewWeights(cfg2, 9)
	x := tensor.Random(3, cfg.E, 1, 13)
	a := Forward(w1, x, nil)
	b := Forward(w2, x, nil)
	if tensor.MaxAbsDiff(a, b) == 0 {
		t.Fatal("gated and GELU FFN gave identical outputs")
	}
	if b.Rows != 3 || b.Cols != cfg.E {
		t.Fatal("gated forward shape wrong")
	}
}

func TestForwardRejectsBadInput(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 1)
	defer func() {
		if recover() == nil {
			t.Error("wrong input width did not panic")
		}
	}()
	Forward(w, tensor.Random(3, cfg.E+1, 1, 1), nil)
}

func TestForwardStepRequiresCache(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 1)
	defer func() {
		if recover() == nil {
			t.Error("nil cache did not panic")
		}
	}()
	ForwardStep(w, tensor.Random(1, cfg.E, 1, 1), nil)
}

func TestEncoderRejectsCache(t *testing.T) {
	cfg := MobileBERT512()
	cfg.L = 1
	cfg.E, cfg.P, cfg.F, cfg.H = 16, 16, 16, 2
	w := NewWeights(cfg, 1)
	defer func() {
		if recover() == nil {
			t.Error("encoder with cache did not panic")
		}
	}()
	Forward(w, tensor.Random(2, cfg.E, 1, 1), NewKVCache(cfg))
}

func TestOutputsAreFinite(t *testing.T) {
	cfg := smallCfg()
	w := NewWeights(cfg, 14)
	x := tensor.Random(8, cfg.E, 2, 15)
	out := Forward(w, x, nil)
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite output")
		}
	}
}

func BenchmarkForwardPrompt(b *testing.B) {
	cfg := smallCfg()
	w := NewWeights(cfg, 1)
	x := tensor.Random(16, cfg.E, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(w, x, nil)
	}
}

func BenchmarkForwardStep(b *testing.B) {
	cfg := smallCfg()
	w := NewWeights(cfg, 1)
	cache := NewKVCache(cfg)
	Forward(w, tensor.Random(8, cfg.E, 1, 2), cache)
	x := tensor.Random(1, cfg.E, 1, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Rebuild a bounded cache so the benchmark stays stationary.
		if cache.Len() > 64 {
			cache = NewKVCache(cfg)
			Forward(w, tensor.Random(8, cfg.E, 1, 2), cache)
		}
		ForwardStep(w, x, cache)
	}
}
