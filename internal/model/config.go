// Package model defines the transformer configurations evaluated in
// the paper (TinyLlama-42M, its scaled-up 64-head variant, MobileBERT),
// weight containers with deterministic synthetic initialization, and a
// reference single-device forward pass in both prompt and
// autoregressive (KV-cache) modes. The reference output is the ground
// truth the distributed executor must reproduce.
package model

import (
	"errors"
	"fmt"
	"strings"
)

// NormKind selects the per-block normalization.
type NormKind int

const (
	// RMSNorm is Llama-style root-mean-square normalization (no bias).
	RMSNorm NormKind = iota
	// LayerNorm is BERT-style mean/variance normalization with bias.
	LayerNorm
)

func (k NormKind) String() string {
	switch k {
	case RMSNorm:
		return "rmsnorm"
	case LayerNorm:
		return "layernorm"
	default:
		return fmt.Sprintf("norm(%d)", int(k))
	}
}

// FFNKind selects the feed-forward structure.
type FFNKind int

const (
	// FFNGELU is the classic two-matrix FFN with a GELU between, the
	// structure described in the paper's background section.
	FFNGELU FFNKind = iota
	// FFNGated is the Llama-style gated FFN (SiLU(x·W1) ∘ (x·W3))·W2.
	FFNGated
)

func (k FFNKind) String() string {
	switch k {
	case FFNGELU:
		return "gelu"
	case FFNGated:
		return "gated"
	default:
		return fmt.Sprintf("ffn(%d)", int(k))
	}
}

// Arch distinguishes causal decoders from bidirectional encoders.
type Arch int

const (
	// Decoder is a causal (auto-regressive capable) transformer.
	Decoder Arch = iota
	// Encoder is a bidirectional transformer (BERT-style).
	Encoder
)

func (a Arch) String() string {
	if a == Encoder {
		return "encoder"
	}
	return "decoder"
}

// Mode is the inference mode of the paper's evaluation.
type Mode int

const (
	// Autoregressive generates one token against a KV cache; the
	// dominant kernel is GEMV.
	Autoregressive Mode = iota
	// Prompt processes a whole sequence at once; the dominant kernel
	// is GEMM.
	Prompt
)

func (m Mode) String() string {
	if m == Autoregressive {
		return "autoregressive"
	}
	return "prompt"
}

// ParseMode is the inverse of Mode.String for command-line flags:
// "autoregressive" (or "ar") and "prompt", case-insensitively.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "autoregressive", "ar":
		return Autoregressive, nil
	case "prompt":
		return Prompt, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (autoregressive | prompt)", s)
	}
}

// Config describes one transformer model using the paper's dimension
// names: sequence length S (a property of the workload, not stored
// here), embedding dimension E, total projection dimension P, head
// count H, intermediate dimension F, and block count L.
type Config struct {
	Name string
	Arch Arch

	E int // embedding dimension
	P int // total projection dimension (H × head dim)
	H int // attention (query) heads
	F int // FFN intermediate dimension
	L int // number of transformer blocks
	// VocabSize is the tokenizer vocabulary (embedding table and LM
	// head rows). The paper's evaluation measures transformer blocks
	// only; the LM-head extension study uses this.
	VocabSize int

	// KVHeads enables grouped-query attention (GQA): the number of
	// key/value heads, each shared by H/KVHeads query heads. Zero
	// means full multi-head attention (KVHeads = H). GQA shrinks the
	// KV cache and the K/V projections — the direction recent SLMs
	// (MobileLLM, SmolLM, Llama 3.x) take, and a natural extension of
	// the paper's head-wise partitioning.
	KVHeads int

	Norm NormKind
	FFN  FFNKind
	// RoPE enables rotary position embeddings on Q and K.
	RoPE bool
	// RoPETheta is the rotary base frequency.
	RoPETheta float64
	// NormEps is the normalization epsilon.
	NormEps float64

	// WeightBytes is the storage size of one weight scalar as
	// deployed (1 = int8).
	WeightBytes int
	// ActBytes is the storage size of one activation scalar as
	// deployed (1 = int8).
	ActBytes int
	// AccBytes is the storage size of one partial-sum scalar inside a
	// chip's accumulators (4 = int32).
	AccBytes int
	// ReduceBytes is the storage size of one partial-output scalar as
	// exchanged between chips during the all-reduce. The deployed
	// int8 flow requantizes partials before sending (1); the exact
	// ablation exchanges int32 accumulators (4).
	ReduceBytes int
}

// HeadDim returns the per-head projection width.
func (c Config) HeadDim() int { return c.P / c.H }

// KVHeadCount returns the effective number of key/value heads.
func (c Config) KVHeadCount() int {
	if c.KVHeads == 0 {
		return c.H
	}
	return c.KVHeads
}

// KVDim returns the width of the K and V projections
// (KVHeadCount × HeadDim); equals P without GQA.
func (c Config) KVDim() int { return c.KVHeadCount() * c.HeadDim() }

// QueryGroupSize returns how many query heads share one KV head.
func (c Config) QueryGroupSize() int { return c.H / c.KVHeadCount() }

// Validate reports the first structural problem with the config.
func (c Config) Validate() error {
	switch {
	case c.E <= 0 || c.P <= 0 || c.H <= 0 || c.F <= 0 || c.L <= 0:
		return fmt.Errorf("model %s: dimensions must be positive", c.Name)
	case c.P%c.H != 0:
		return fmt.Errorf("model %s: projection %d not divisible by heads %d", c.Name, c.P, c.H)
	case c.RoPE && c.HeadDim()%2 != 0:
		return fmt.Errorf("model %s: RoPE needs even head dim, got %d", c.Name, c.HeadDim())
	case c.WeightBytes <= 0 || c.ActBytes <= 0 || c.AccBytes <= 0 || c.ReduceBytes <= 0:
		return fmt.Errorf("model %s: element sizes must be positive", c.Name)
	case c.NormEps <= 0:
		return fmt.Errorf("model %s: norm epsilon must be positive", c.Name)
	case c.RoPE && c.RoPETheta <= 0:
		return fmt.Errorf("model %s: RoPE theta must be positive", c.Name)
	case c.Arch == Encoder && c.RoPE:
		return errors.New("model: encoder preset with RoPE is not supported")
	case c.KVHeads < 0:
		return fmt.Errorf("model %s: KV head count must be non-negative", c.Name)
	case c.KVHeads > 0 && c.H%c.KVHeads != 0:
		return fmt.Errorf("model %s: %d query heads not divisible by %d KV heads", c.Name, c.H, c.KVHeads)
	}
	return nil
}

// FFNMatrices returns how many weight matrices the FFN holds.
func (c Config) FFNMatrices() int {
	if c.FFN == FFNGated {
		return 3
	}
	return 2
}

// BlockWeightCount returns the number of weight scalars in one block
// (attention projections + FFN; norm gains are negligible and
// excluded, matching the paper's capacity arithmetic). With GQA the
// K/V projections shrink to the KV width.
func (c Config) BlockWeightCount() int {
	attn := 2*c.E*c.P + 2*c.E*c.KVDim() // WQ + WO, WK + WV
	ffn := c.FFNMatrices() * c.E * c.F
	return attn + ffn
}

// BlockWeightBytes returns the deployed byte size of one block's
// weights.
func (c Config) BlockWeightBytes() int {
	return c.BlockWeightCount() * c.WeightBytes
}

// TotalWeightBytes returns the deployed byte size of all L blocks.
func (c Config) TotalWeightBytes() int {
	return c.L * c.BlockWeightBytes()
}

// KVBytesPerBlock returns the per-block KV-cache footprint for a
// context of length s (keys + values across all KV heads).
func (c Config) KVBytesPerBlock(s int) int {
	return 2 * s * c.KVDim() * c.ActBytes
}

// TinyLlama42M is the paper's main workload: the TinyLlama decoder
// with E=512, intermediate size 2048, 8 heads, 8 layers. The paper
// runs it with S=128 in autoregressive mode and S=16 in prompt mode.
func TinyLlama42M() Config {
	return Config{
		Name:        "tinyllama-42m",
		Arch:        Decoder,
		VocabSize:   32000,
		E:           512,
		P:           512,
		H:           8,
		F:           2048,
		L:           8,
		Norm:        RMSNorm,
		FFN:         FFNGELU,
		RoPE:        true,
		RoPETheta:   10000,
		NormEps:     1e-5,
		WeightBytes: 1,
		ActBytes:    1,
		AccBytes:    4,
		ReduceBytes: 1,
	}
}

// TinyLlamaScaled64 is the scalability-study variant: head count
// raised from 8 to 64 with all other parameters unchanged, enabling
// head-parallel distribution across up to 64 chips.
func TinyLlamaScaled64() Config {
	c := TinyLlama42M()
	c.Name = "tinyllama-scaled64"
	c.H = 64
	return c
}

// MobileBERT512 is the paper's encoder workload: embedding dimension
// and intermediate size 512, 4 attention heads, sequence length 268.
// The paper does not state the block count of its simplified
// configuration; we use 12 and report per-block numbers alongside.
func MobileBERT512() Config {
	return Config{
		Name:        "mobilebert-512",
		Arch:        Encoder,
		VocabSize:   30522,
		E:           512,
		P:           512,
		H:           4,
		F:           512,
		L:           12,
		Norm:        LayerNorm,
		FFN:         FFNGELU,
		RoPE:        false,
		NormEps:     1e-5,
		WeightBytes: 1,
		ActBytes:    1,
		AccBytes:    4,
		ReduceBytes: 1,
	}
}

// SmolLM135M is a grouped-query-attention SLM preset (hidden 576, 9
// query heads sharing 3 KV heads, gated FFN of 1536, 30 blocks) —
// representative of the post-paper generation of small language
// models and of the GQA extension of the partitioning scheme.
func SmolLM135M() Config {
	return Config{
		Name:        "smollm-135m",
		Arch:        Decoder,
		VocabSize:   49152,
		E:           576,
		P:           576,
		H:           9,
		KVHeads:     3,
		F:           1536,
		L:           30,
		Norm:        RMSNorm,
		FFN:         FFNGated,
		RoPE:        true,
		RoPETheta:   10000,
		NormEps:     1e-5,
		WeightBytes: 1,
		ActBytes:    1,
		AccBytes:    4,
		ReduceBytes: 1,
	}
}

// EdgeLlama1B is the bigger-than-SRAM scenario tier: a ~1B-parameter
// Llama-3.2-1B-shaped decoder (hidden 2048, 32 query heads sharing 8
// KV heads, gated FFN of 5632, 22 blocks; ~45 MB of int8 block
// weights, ~5.6 MB per chip per block even at 8 chips). No chip count
// keeps a block slice resident in a 2 MiB L2, so every deployment runs
// in the streamed tier — the regime the DRAM-backed memory-hierarchy
// model (hw.MemHierarchy) exists to price and the paper's
// fits-on-chip accounting cannot.
func EdgeLlama1B() Config {
	return Config{
		Name:        "edgellama-1b",
		Arch:        Decoder,
		VocabSize:   128256,
		E:           2048,
		P:           2048,
		H:           32,
		KVHeads:     8,
		F:           5632,
		L:           22,
		Norm:        RMSNorm,
		FFN:         FFNGated,
		RoPE:        true,
		RoPETheta:   10000,
		NormEps:     1e-5,
		WeightBytes: 1,
		ActBytes:    1,
		AccBytes:    4,
		ReduceBytes: 1,
	}
}

// ByName returns the preset a command-line -model flag names,
// case-insensitively: tinyllama, scaled (alias tinyllama64),
// mobilebert, smollm or edgellama.
func ByName(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "tinyllama":
		return TinyLlama42M(), nil
	case "scaled", "tinyllama64":
		return TinyLlamaScaled64(), nil
	case "mobilebert":
		return MobileBERT512(), nil
	case "smollm":
		return SmolLM135M(), nil
	case "edgellama":
		return EdgeLlama1B(), nil
	default:
		return Config{}, fmt.Errorf("unknown model %q (tinyllama | scaled | mobilebert | smollm | edgellama)", name)
	}
}

// PaperSeqLen returns the sequence length the paper uses for the given
// model and mode.
func PaperSeqLen(c Config, m Mode) int {
	if c.Arch == Encoder {
		return 268
	}
	if m == Prompt {
		return 16
	}
	return 128
}
