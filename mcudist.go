// Package mcudist reproduces "Distributed Inference with Minimal
// Off-Chip Traffic for Transformers on Low-Power MCUs" (DATE 2025): a
// tensor-parallel partitioning scheme that runs small transformers
// across a network of Siracusa-like MCUs with no weight replication
// and two synchronizations per block, an event-driven multi-chip
// performance simulator, the paper's analytical energy model, and a
// functional distributed executor that proves the partitioned network
// computes exactly what the single-device network computes.
//
// Quick start:
//
//	rep, err := mcudist.Run(
//		mcudist.DefaultSystem(8),
//		mcudist.Workload{Model: mcudist.TinyLlama42M(), Mode: mcudist.Autoregressive},
//	)
//
// See the examples directory for runnable scenarios and cmd/paperrepro
// for regenerating every table and figure of the paper.
package mcudist

import (
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/model"
	"mcudist/internal/numeric"
	"mcudist/internal/partition"
	"mcudist/internal/resultstore"
	"mcudist/internal/tensor"
)

// Simulation API.
type (
	// System describes the multi-chip platform and strategy.
	System = core.System
	// Workload selects a model, an inference mode, and a sequence
	// length.
	Workload = core.Workload
	// Report is the consolidated result of one simulated forward.
	Report = core.Report
	// SessionOptions tunes the joint prefill+decode autotuner (the
	// TopK pruning knob, the Exhaustive ground-truth mode, sequence
	// lengths).
	SessionOptions = explore.SessionOptions
	// SessionResult is the outcome of a joint-session plan autotuning:
	// the winning plan, its margin over the best uniform session, the
	// predictor's rank accuracy, and the exact-simulation bill.
	SessionResult = explore.SessionResult
	// PlanFrontierOptions tunes PlanFrontier (extra networks, seed
	// size, exhaustive ground-truth mode, sequence lengths).
	PlanFrontierOptions = explore.PlanFrontierOptions
	// PlanFrontierResult is a surrogate-first plan frontier scan: every
	// verified (network, chips, plan) point, Pareto marks across the
	// union, and the exact-evaluation bill against the naive grid.
	PlanFrontierResult = explore.PlanFrontierResult
	// ResultStore is the persistent content-addressed result cache
	// (see OpenResultStore).
	ResultStore = resultstore.Store
	// EvalStats is the evaluation engine's cache-tier counters
	// (memory hits / disk hits / exact simulations).
	EvalStats = evalpool.Stats
)

// Model description API.
type (
	// Config is a transformer model description.
	Config = model.Config
	// Mode is the inference mode.
	Mode = model.Mode
	// Strategy selects the distribution scheme.
	Strategy = partition.Strategy
	// Plan is a placement of a model onto chips.
	Plan = partition.Plan
	// Weights holds float parameters for functional runs.
	Weights = model.Weights
	// KVCache is the reference autoregressive cache.
	KVCache = model.KVCache
	// Mat is a row-major float32 matrix.
	Mat = tensor.Mat
	// Executor runs the distributed forward pass numerically.
	Executor = numeric.Executor
	// GenerationReport aggregates a prefill + decode session.
	GenerationReport = core.GenerationReport
	// ExplorePoint is one configuration of a design-space sweep.
	ExplorePoint = explore.Point
)

// Inference modes.
const (
	Autoregressive = model.Autoregressive
	Prompt         = model.Prompt
)

// Distribution strategies.
const (
	TensorParallel = partition.TensorParallel
	Replicated     = partition.Replicated
	Pipeline       = partition.Pipeline
)

// Run plans, simulates, and evaluates one workload on one system.
// Like Sweep, it is served from the process-wide memoized cache: a
// configuration already evaluated by any Run, Sweep, or experiment is
// returned instantly, and the report may be shared — treat it as
// immutable.
func Run(sys System, wl Workload) (*Report, error) { return evalpool.Run(sys, wl) }

// Sweep runs a workload across several chip counts, evaluating the
// configurations concurrently on the shared worker pool (results are
// identical to the serial path and returned in chip-list order).
//
// Returned reports come from a process-wide memoized cache and may be
// shared with other Sweep, Frontier, or experiment calls: treat them
// as immutable. Long-lived processes sweeping many distinct
// configurations can release the cache with ResetCache.
func Sweep(base System, wl Workload, chips []int) ([]*Report, error) {
	return evalpool.Eval(base, wl, chips)
}

// ResetCache drops every memoized report, releasing the memory a
// long-lived design-space exploration accumulates.
func ResetCache() { evalpool.ResetCache() }

// OpenResultStore opens (creating if needed) the persistent
// content-addressed result store in dir — an append-only log of
// simulation reports keyed by a versioned digest of the exact
// configuration, shared safely between concurrent processes. Attach
// it with SetResultStore to make every evaluation in this process
// consult and fill it.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// SetResultStore attaches a persistent result store as the evaluation
// engine's second cache tier: every memory miss is looked up in the
// store before simulating, and every fresh simulation is appended for
// later processes. nil detaches.
func SetResultStore(s *ResultStore) { evalpool.SetStore(s) }

// CacheStats returns the evaluation engine's lifetime cache-tier
// counters — how many requests the memory memo answered, how many the
// persistent store answered, and how many exact simulations ran. A
// fully warm store shows Simulations unchanged across a whole rerun.
func CacheStats() EvalStats { return evalpool.GetStats() }

// Speedup returns base.Cycles / r.Cycles.
func Speedup(base, r *Report) float64 { return core.Speedup(base, r) }

// DefaultSystem returns the paper's Siracusa-based system with n
// chips and the tensor-parallel strategy.
func DefaultSystem(n int) System { return core.DefaultSystem(n) }

// TinyLlama42M returns the paper's main decoder workload.
func TinyLlama42M() Config { return model.TinyLlama42M() }

// TinyLlamaScaled64 returns the 64-head scalability-study variant.
func TinyLlamaScaled64() Config { return model.TinyLlamaScaled64() }

// MobileBERT512 returns the paper's encoder workload.
func MobileBERT512() Config { return model.MobileBERT512() }

// SmolLM135M returns a grouped-query-attention SLM preset (the GQA
// extension of the partitioning scheme).
func SmolLM135M() Config { return model.SmolLM135M() }

// PaperSeqLen returns the sequence length the paper uses for a model
// and mode.
func PaperSeqLen(c Config, m Mode) int { return model.PaperSeqLen(c, m) }

// NewWeights builds deterministic synthetic weights for functional
// runs.
func NewWeights(cfg Config, seed int64) *Weights { return model.NewWeights(cfg, seed) }

// Forward runs the reference single-device prompt-mode forward pass.
func Forward(w *Weights, x *Mat, cache *KVCache) *Mat { return model.Forward(w, x, cache) }

// ForwardStep runs one reference autoregressive step.
func ForwardStep(w *Weights, x *Mat, cache *KVCache) *Mat { return model.ForwardStep(w, x, cache) }

// NewKVCache returns an empty reference cache.
func NewKVCache(cfg Config) *KVCache { return model.NewKVCache(cfg) }

// NewPlan builds the paper's tensor-parallel partition of cfg across
// n chips.
func NewPlan(cfg Config, n int) (*Plan, error) { return partition.NewTensorParallel(cfg, n) }

// NewExecutor distributes weights per the plan for functional runs.
func NewExecutor(w *Weights, p *Plan) (*Executor, error) { return numeric.NewExecutor(w, p) }

// RandomInput returns a deterministic random activation matrix
// (rows × cfg.E).
func RandomInput(cfg Config, rows int, seed int64) *Mat {
	return tensor.Random(rows, cfg.E, 1, seed)
}

// MaxAbsDiff returns the largest absolute elementwise difference
// between two matrices (for verifying distributed against reference).
func MaxAbsDiff(a, b *Mat) float64 { return tensor.MaxAbsDiff(a, b) }

// RunGeneration simulates a full interactive session: prompt prefill
// followed by genTokens autoregressive steps with growing context.
func RunGeneration(sys System, cfg Config, promptLen, genTokens int) (*GenerationReport, error) {
	return core.RunGeneration(sys, cfg, promptLen, genTokens)
}

// MinChipsOffChipFree returns the smallest chip count (≤ maxChips)
// that keeps off-chip traffic off the runtime critical path.
func MinChipsOffChipFree(base System, wl Workload, maxChips int) (*ExplorePoint, error) {
	return explore.MinChipsOffChipFree(base, wl, maxChips)
}

// Frontier evaluates the workload at the given chip counts and marks
// latency/energy Pareto-optimal configurations.
func Frontier(base System, wl Workload, chips []int) ([]ExplorePoint, error) {
	return explore.Frontier(base, wl, chips)
}

// LegalChipCounts returns the chip counts the tensor-parallel plan
// accepts for cfg, up to max.
func LegalChipCounts(cfg Config, max int) []int {
	return explore.LegalChipCounts(cfg, max)
}

// AutotuneSession tunes the collective plan of a whole generation
// session — one prompt prefill plus one decode step — jointly over
// the full class × topology grid, using a per-class cost predictor to
// rank the joint candidates and exact simulations only for the
// predicted top-K plus the uniform baselines (the winner is always
// chosen on exact cycles). A default top-K is verified when opts.TopK
// is zero; opts.Exhaustive enumerates the whole grid exactly instead.
// Set the returned Plan on System.Options.SyncPlan to deploy it.
func AutotuneSession(base System, cfg Config, opts SessionOptions) (*SessionResult, error) {
	return explore.AutotuneSession(base, cfg, opts)
}

// PlanFrontier scans the joint plan grid across networks × chip
// counts surrogate-first: fit a cost model per cell, verify only the
// plans that could plausibly reach the latency/energy Pareto front,
// and mark the front across the union on exact numbers. On the pinned
// operating points the front is identical to exhaustive enumeration
// at a fraction of the evaluations.
func PlanFrontier(base System, cfg Config, chips []int, opts PlanFrontierOptions) (*PlanFrontierResult, error) {
	return explore.PlanFrontier(base, cfg, chips, opts)
}
