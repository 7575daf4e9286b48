package model

import (
	"fmt"

	"mcudist/internal/tensor"
)

// BlockWeights holds the float parameters of one transformer block.
// Shapes follow the paper: WQ is E×P, WK/WV are E×KVDim (= E×P
// without GQA), WO is P×E, W1 is E×F, W2 is F×E and the optional gate
// W3 is E×F.
type BlockWeights struct {
	WQ, WK, WV *tensor.Mat
	WO         *tensor.Mat
	W1, W2     *tensor.Mat
	W3         *tensor.Mat // gated FFN only, nil otherwise

	// Biases are used by LayerNorm-style (BERT) models; nil slices
	// mean no bias. BQ/BK/BV are length P, BO length E, B1 length F,
	// B2 length E.
	BQ, BK, BV []float32
	BO         []float32
	B1         []float32
	B2         []float32

	// Norm parameters. Gain lengths are E; bias is LayerNorm only.
	Norm1Gain, Norm1Bias []float32
	Norm2Gain, Norm2Bias []float32
}

// Weights holds all blocks of a model.
type Weights struct {
	Config Config
	Blocks []*BlockWeights
}

// NewWeights builds deterministic synthetic weights for cfg. Values are
// small and seed-derived so functional tests are reproducible; timing
// and energy never depend on the values, only the shapes.
func NewWeights(cfg Config, seed int64) *Weights {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("model: invalid config: %v", err))
	}
	const scale = 0.08
	w := &Weights{Config: cfg, Blocks: make([]*BlockWeights, cfg.L)}
	s := seed
	next := func() int64 { s++; return s }
	for b := 0; b < cfg.L; b++ {
		bw := &BlockWeights{
			WQ: tensor.Random(cfg.E, cfg.P, scale, next()),
			WK: tensor.Random(cfg.E, cfg.KVDim(), scale, next()),
			WV: tensor.Random(cfg.E, cfg.KVDim(), scale, next()),
			WO: tensor.Random(cfg.P, cfg.E, scale, next()),
			W1: tensor.Random(cfg.E, cfg.F, scale, next()),
			W2: tensor.Random(cfg.F, cfg.E, scale, next()),
		}
		if cfg.FFN == FFNGated {
			bw.W3 = tensor.Random(cfg.E, cfg.F, scale, next())
		}
		bw.Norm1Gain = ones(cfg.E)
		bw.Norm2Gain = ones(cfg.E)
		if cfg.Norm == LayerNorm {
			bw.Norm1Bias = smallVec(cfg.E, next())
			bw.Norm2Bias = smallVec(cfg.E, next())
			bw.BQ = smallVec(cfg.P, next())
			bw.BK = smallVec(cfg.KVDim(), next())
			bw.BV = smallVec(cfg.KVDim(), next())
			bw.BO = smallVec(cfg.E, next())
			bw.B1 = smallVec(cfg.F, next())
			bw.B2 = smallVec(cfg.E, next())
		}
		w.Blocks[b] = bw
	}
	return w
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func smallVec(n int, seed int64) []float32 {
	m := tensor.Random(1, n, 0.02, seed)
	return m.Data
}
