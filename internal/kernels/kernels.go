// Package kernels provides cycle-accurate-style cost models for the
// compute kernels of transformer inference on a Siracusa-like cluster.
// Each model returns cluster-busy cycles plus the bytes the kernel
// moves between memory levels; the performance simulator turns those
// into DMA occupancy and the energy model into joules.
//
// The models capture the effects the paper calls out explicitly:
//   - SIMD dot-product throughput (4 int8 MACs/core/cycle),
//   - per-kernel launch overhead and per-output loop overhead, which
//     make small kernels scale sub-linearly ("the runtime of a GEMM
//     kernel does not scale down linearly as the overall kernel size
//     is reduced"),
//   - ceil-based work imbalance when a dimension does not divide the
//     core count.
package kernels

import (
	"fmt"

	"mcudist/internal/hw"
)

// Elem describes deployed element sizes in bytes.
type Elem struct {
	Weight int // weight scalar (1 = int8)
	Act    int // activation scalar (1 = int8)
	Acc    int // partial-sum scalar (4 = int32)
	Reduce int // partial-output scalar as exchanged between chips
}

// Cost is the resource usage of one kernel invocation on one chip.
type Cost struct {
	// Name identifies the kernel for traces and breakdowns.
	Name string
	// Cycles is cluster compute occupancy (data assumed in L1).
	Cycles float64
	// MACs counts multiply-accumulates (0 for elementwise kernels).
	MACs int64
	// WeightBytes is weight data consumed, which moves L2→L1 (and
	// L3→L2 first when the deployment streams weights).
	WeightBytes int64
	// ActInBytes is activation input moved L2→L1.
	ActInBytes int64
	// ActOutBytes is activation output moved L1→L2.
	ActOutBytes int64
	// M, K, N record the GEMM shape (activations M×K against a K×N
	// weight matrix) for kernels whose weight operand can be tiled by
	// the memory-hierarchy simulator. Zero for elementwise kernels.
	M, K, N int
	// FFN marks the cost as belonging to the feed-forward layer
	// family; the memory-hierarchy autotuner assigns attention and FFN
	// GEMMs independent tilings. Set by the deployment planner (the
	// kernel models don't know which sublayer invokes them).
	FFN bool
}

// TotalL2L1Bytes is all data the kernel moves between L2 and L1.
func (c Cost) TotalL2L1Bytes() int64 {
	return c.WeightBytes + c.ActInBytes + c.ActOutBytes
}

// perOutputOverheadCycles models the per-output-element loop epilogue
// (pointer updates, accumulator init/requant staging) of the int8
// GEMM kernels.
const perOutputOverheadCycles = 2.0

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("kernels: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}

// matmulCycles models an M×K · K×N product on the cluster. Work is
// parallelized over the larger output dimension; the inner dot product
// runs on the SIMD unit in ceil(K/width) steps.
func matmulCycles(p hw.Params, m, k, n int) float64 {
	cores := p.Chip.Cores
	width := p.Chip.MACsPerCorePerCycle
	inner := float64(ceilDiv(k, width)) + perOutputOverheadCycles
	var perCoreOutputs int
	if m >= n {
		perCoreOutputs = ceilDiv(m, cores) * n
	} else {
		perCoreOutputs = ceilDiv(n, cores) * m
	}
	return float64(p.Chip.KernelSetupCycles) + float64(perCoreOutputs)*inner
}

// Linear models x·W (+bias): activations M×K against weights K×N.
func Linear(p hw.Params, m, k, n int, e Elem) Cost {
	if m <= 0 || k <= 0 || n <= 0 {
		panic(fmt.Sprintf("kernels: linear shape %dx%dx%d", m, k, n))
	}
	return Cost{
		Name:        "linear",
		Cycles:      matmulCycles(p, m, k, n),
		MACs:        int64(m) * int64(k) * int64(n),
		WeightBytes: int64(k) * int64(n) * int64(e.Weight),
		ActInBytes:  int64(m) * int64(k) * int64(e.Act),
		ActOutBytes: int64(m) * int64(n) * int64(e.Act),
		M:           m,
		K:           k,
		N:           n,
	}
}

// MatMulAct models an activation-by-activation product (attention
// score and context matmuls): both operands are activations, e.g. the
// KV cache read in autoregressive mode.
func MatMulAct(p hw.Params, m, k, n int, e Elem) Cost {
	if m <= 0 || k <= 0 || n <= 0 {
		panic(fmt.Sprintf("kernels: matmulact shape %dx%dx%d", m, k, n))
	}
	return Cost{
		Name:        "matmul",
		Cycles:      matmulCycles(p, m, k, n),
		MACs:        int64(m) * int64(k) * int64(n),
		ActInBytes:  (int64(m)*int64(k) + int64(k)*int64(n)) * int64(e.Act),
		ActOutBytes: int64(m) * int64(n) * int64(e.Act),
	}
}

// elementwise models a parallel map over rows×cols elements.
func elementwise(p hw.Params, name string, elems int, cyclesPerElem float64, inBytes, outBytes int64) Cost {
	perCore := ceilDiv(elems, p.Chip.Cores)
	return Cost{
		Name:        name,
		Cycles:      float64(p.Chip.KernelSetupCycles) + float64(perCore)*cyclesPerElem,
		ActInBytes:  inBytes,
		ActOutBytes: outBytes,
	}
}

// Softmax models a row-wise numerically-stable softmax (max scan, exp
// via the cluster's LUT-based approximation, normalize).
func Softmax(p hw.Params, rows, cols int, e Elem) Cost {
	n := int64(rows) * int64(cols) * int64(e.Act)
	return elementwise(p, "softmax", rows*cols, 8, n, n)
}

// Norm models LayerNorm/RMSNorm over rows of the given width.
func Norm(p hw.Params, rows, cols int, e Elem) Cost {
	n := int64(rows) * int64(cols) * int64(e.Act)
	return elementwise(p, "norm", rows*cols, 5, n, n)
}

// GELU models the tanh-approximated activation.
func GELU(p hw.Params, rows, cols int, e Elem) Cost {
	n := int64(rows) * int64(cols) * int64(e.Act)
	return elementwise(p, "gelu", rows*cols, 4, n, n)
}

// ResidualAdd models the skip-connection addition.
func ResidualAdd(p hw.Params, rows, cols int, e Elem) Cost {
	n := int64(rows) * int64(cols) * int64(e.Act)
	return elementwise(p, "residual", rows*cols, 1, 2*n, n)
}

// RoPE models rotary embedding application to a rows×cols slice.
func RoPE(p hw.Params, rows, cols int, e Elem) Cost {
	n := int64(rows) * int64(cols) * int64(e.Act)
	return elementwise(p, "rope", rows*cols, 6, n, n)
}

// Requant models int32→int8 requantization of rows×cols accumulators.
func Requant(p hw.Params, rows, cols int, e Elem) Cost {
	in := int64(rows) * int64(cols) * int64(e.Acc)
	out := int64(rows) * int64(cols) * int64(e.Act)
	return elementwise(p, "requant", rows*cols, 2, in, out)
}

// ReduceAdd models accumulating one incoming partial-output tile into
// the local partial during the hierarchical all-reduce, in the
// exchange precision (int8 saturating add as deployed, int32 for the
// exact ablation).
func ReduceAdd(p hw.Params, rows, cols int, e Elem) Cost {
	b := e.Reduce
	if b <= 0 {
		b = e.Acc
	}
	n := int64(rows) * int64(cols) * int64(b)
	return elementwise(p, "reduce-add", rows*cols, 1, 2*n, n)
}

// KVAppend models writing the new keys/values of rows positions into
// the cache (pure data movement through the cluster DMA).
func KVAppend(p hw.Params, rows, cols int, e Elem) Cost {
	n := int64(rows) * int64(cols) * int64(e.Act)
	return Cost{Name: "kv-append", Cycles: float64(p.Chip.DMAL2L1SetupCycles), ActOutBytes: 2 * n}
}

// DMATime returns the cycles the given engine bandwidth needs to move
// n bytes, including the fixed per-transfer setup, split into tiles of
// at most tileBytes (0 = single transfer).
func DMATime(bytes int64, bytesPerCycle float64, setupCycles int, tileBytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	if bytesPerCycle <= 0 {
		panic("kernels: DMA bandwidth must be positive")
	}
	tiles := int64(1)
	if tileBytes > 0 {
		tiles = (bytes + tileBytes - 1) / tileBytes
	}
	return float64(bytes)/bytesPerCycle + float64(tiles)*float64(setupCycles)
}
