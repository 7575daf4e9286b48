package experiments

import (
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/kernels"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// Extension studies: questions the paper's evaluation grid leaves
// open, answered with the same machinery.

// GridRow is one chip count of the full-grid study.
type GridRow struct {
	Chips   int
	Cycles  float64
	Speedup float64
	Tier    string
}

// ExtensionFullGrid evaluates TinyLlama autoregressive on EVERY chip
// count 1–8, not just the paper's powers of two. It reveals that the
// off-chip-free crossover already happens at 5 chips.
func ExtensionFullGrid() ([]GridRow, error) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	chips := explore.LegalChipCounts(wl.Model, 8)
	reports, err := evalpool.Eval(core.DefaultSystem(1), wl, chips)
	if err != nil {
		return nil, err
	}
	rows := make([]GridRow, len(reports))
	for i, r := range reports {
		rows[i] = GridRow{
			Chips:   chips[i],
			Cycles:  r.Cycles,
			Speedup: core.Speedup(reports[0], r),
			Tier:    r.Tier.String(),
		}
	}
	return rows, nil
}

// SeqLenRow is one sequence length of the crossover study.
type SeqLenRow struct {
	SeqLen   int
	Speedup8 float64
	// L3Share1 is the single-chip L3 runtime fraction.
	L3Share1 float64
}

// ExtensionSeqLenStudy sweeps the prompt length: short prompts are
// memory-bound (big speedups from removing L3), long prompts
// compute-bound (speedups approach the chip count).
func ExtensionSeqLenStudy() ([]SeqLenRow, error) {
	cfg := model.TinyLlama42M()
	lens := []int{4, 8, 16, 32, 64, 128}
	// One (1-chip, 8-chip) pair per prompt length, all in one fan-out.
	var points []evalpool.Point
	for _, s := range lens {
		wl := core.Workload{Model: cfg, Mode: model.Prompt, SeqLen: s}
		points = append(points,
			evalpool.Point{System: core.DefaultSystem(1), Workload: wl},
			evalpool.Point{System: core.DefaultSystem(8), Workload: wl})
	}
	reports, err := evalpool.Map(points)
	if err != nil {
		return nil, err
	}
	rows := make([]SeqLenRow, len(lens))
	for i, s := range lens {
		one, eight := reports[2*i], reports[2*i+1]
		rows[i] = SeqLenRow{
			SeqLen:   s,
			Speedup8: core.Speedup(one, eight),
			L3Share1: one.Breakdown.L3 / one.Cycles,
		}
	}
	return rows, nil
}

// ContextRow is one context length of the autoregressive KV study.
type ContextRow struct {
	Context    int
	CyclesPer8 float64
	EnergyMJ8  float64
	Tier       string
}

// ExtensionContextStudy sweeps the autoregressive context length at 8
// chips: per-token cost grows with the KV reads, and very long
// contexts eventually push the KV cache out of the double-buffered
// budget.
func ExtensionContextStudy() ([]ContextRow, error) {
	cfg := model.TinyLlama42M()
	ctxs := []int{32, 64, 128, 256, 512, 1024}
	points := make([]evalpool.Point, len(ctxs))
	for i, ctx := range ctxs {
		points[i] = evalpool.Point{
			System:   core.DefaultSystem(8),
			Workload: core.Workload{Model: cfg, Mode: model.Autoregressive, SeqLen: ctx},
		}
	}
	reports, err := evalpool.Map(points)
	if err != nil {
		return nil, err
	}
	rows := make([]ContextRow, len(ctxs))
	for i, rep := range reports {
		rows[i] = ContextRow{
			Context:    ctxs[i],
			CyclesPer8: rep.Cycles,
			EnergyMJ8:  rep.Energy.Total() * 1e3,
			Tier:       rep.Tier.String(),
		}
	}
	return rows, nil
}

// LMHeadRow quantifies what the paper's block-only measurement
// excludes: the output (LM head) projection of one token.
type LMHeadRow struct {
	Chips int
	// BlocksCycles is the simulated per-token cost of all blocks.
	BlocksCycles float64
	// HeadCycles is the analytical cost of the vocab projection:
	// streaming the E×V int8 head slice from L3 plus the GEMV.
	HeadCycles float64
	// HeadShare is head / (head + blocks).
	HeadShare float64
}

// ExtensionLMHeadStudy adds the vocabulary projection the paper's
// per-block measurements exclude. The head is vocab-split across
// chips (each chip computes its logit slice; the argmax exchange is
// negligible), but its 16 MiB weight matrix can never reside on-chip,
// so it streams from L3 every token — and dominates the per-token
// cost, justifying the paper's focus on making the blocks
// off-chip-free first.
func ExtensionLMHeadStudy() ([]LMHeadRow, error) {
	cfg := model.TinyLlama42M()
	hwp := hw.Siracusa()
	e := kernels.Elem{Weight: cfg.WeightBytes, Act: cfg.ActBytes, Acc: cfg.AccBytes, Reduce: cfg.ReduceBytes}
	var rows []LMHeadRow
	for _, n := range []int{1, 8} {
		rep, err := evalpool.Run(core.DefaultSystem(n),
			core.Workload{Model: cfg, Mode: model.Autoregressive})
		if err != nil {
			return nil, err
		}
		vSlice := cfg.VocabSize / n
		headBytes := int64(cfg.E) * int64(vSlice) * int64(cfg.WeightBytes)
		stream := kernels.DMATime(headBytes, hwp.Chip.DMAL3L2BytesPerCycle,
			hwp.Chip.DMAL3L2SetupCycles, int64(hwp.Chip.L1Bytes/2))
		gemv := kernels.Linear(hwp, 1, cfg.E, vSlice, e)
		head := stream + gemv.Cycles +
			kernels.DMATime(gemv.TotalL2L1Bytes(), hwp.Chip.DMAL2L1BytesPerCycle,
				hwp.Chip.DMAL2L1SetupCycles, int64(hwp.Chip.L1Bytes/2))
		rows = append(rows, LMHeadRow{
			Chips:        n,
			BlocksCycles: rep.Cycles,
			HeadCycles:   head,
			HeadShare:    head / (head + rep.Cycles),
		})
	}
	return rows, nil
}

// BatchRow is one batch size of the pipelining study.
type BatchRow struct {
	Batch int
	// OursLatencyCycles is the per-request latency of the paper's
	// tensor-parallel scheme (batch-independent: requests serialize).
	OursLatencyCycles float64
	// PipeLastLatency is when the last request of the batch leaves
	// the pipeline; PipeThroughput is requests per second once full.
	PipeLastLatency float64
	// Throughputs in requests/s at 500 MHz.
	OursThroughput float64
	PipeThroughput float64
}

// ExtensionBatchingStudy quantifies the paper's Table I argument
// against pipeline parallelism: with batch 1 (the smart-glasses
// reality) a pipeline gives neither latency nor throughput; only with
// multi-user batches does its throughput recover — which is exactly
// the regime edge devices do not have.
func ExtensionBatchingStudy() ([]BatchRow, error) {
	cfg := model.TinyLlama42M()
	wl := core.Workload{Model: cfg, Mode: model.Prompt, SeqLen: 16}

	ours, err := evalpool.Run(core.DefaultSystem(8), wl)
	if err != nil {
		return nil, err
	}
	pipeSys := core.DefaultSystem(8)
	pipeSys.Strategy = partition.Pipeline
	pipe, err := evalpool.Run(pipeSys, wl)
	if err != nil {
		return nil, err
	}
	// The slowest stage of the simulated single request bounds
	// pipeline throughput.
	maxStage := pipe.MaxChipBusyCycles
	freq := pipeSys.HW.Chip.FreqHz

	var rows []BatchRow
	for _, b := range []int{1, 2, 4, 8, 16} {
		fb := float64(b)
		rows = append(rows, BatchRow{
			Batch:             b,
			OursLatencyCycles: ours.Cycles,
			PipeLastLatency:   pipe.Cycles + (fb-1)*maxStage,
			OursThroughput:    freq / ours.Cycles, // requests serialize
			PipeThroughput:    fb * freq / (pipe.Cycles + (fb-1)*maxStage),
		})
	}
	return rows, nil
}

// CollectiveRow compares the tree and ring collectives for one
// payload.
type CollectiveRow struct {
	Payload    int64
	Chips      int
	TreeCycles float64
	RingCycles float64
}

// ExtensionCollectiveStudy compares the paper's hierarchical tree
// against a bandwidth-optimal ring all-reduce across payload sizes
// and chip counts. The ring wins at moderate scale (8 chips) — even
// for small payloads — and decisively for encoder-scale payloads; the
// tree's logarithmic depth wins for small payloads at 64 chips, the
// regime the paper's scalability study targets.
func ExtensionCollectiveStudy() ([]CollectiveRow, error) {
	p := hw.Siracusa()
	var rows []CollectiveRow
	for _, chips := range []int{8, 64} {
		tree, err := interconnect.BuildTree(chips, p.GroupSize)
		if err != nil {
			return nil, err
		}
		for _, payload := range []int64{512, 8 * 1024, 137 * 1024, 1 << 20} {
			rows = append(rows, CollectiveRow{
				Payload:    payload,
				Chips:      chips,
				TreeCycles: interconnect.CriticalPathCycles(tree, p, payload, payload),
				RingCycles: interconnect.RingAllReduceCycles(chips, p, 2*payload),
			})
		}
	}
	return rows, nil
}

// GQARow compares grouped-query attention against full multi-head
// attention for the same model geometry.
type GQARow struct {
	Variant         string
	KVCacheBytes    int // per block at S=128
	BlockWeightMiB  float64
	MaxChips        int
	MinChipsNoL3    int
	LatencyMSAtBest float64
}

// ExtensionGQAStudy quantifies what GQA changes for the partitioning
// scheme: smaller KV caches and K/V projections ease the fit, but the
// chip ceiling drops to the KV head count.
func ExtensionGQAStudy() ([]GQARow, error) {
	gqa := model.SmolLM135M()
	mha := gqa
	mha.Name = "smollm-135m-mha"
	mha.KVHeads = 0 // full multi-head attention

	var rows []GQARow
	for _, cfg := range []model.Config{gqa, mha} {
		wl := core.Workload{Model: cfg, Mode: model.Autoregressive, SeqLen: 128}
		maxChips := explore.LegalChipCounts(cfg, 64)
		best := maxChips[len(maxChips)-1]

		row := GQARow{
			Variant:        cfg.Name,
			KVCacheBytes:   cfg.KVBytesPerBlock(128),
			BlockWeightMiB: float64(cfg.BlockWeightBytes()) / (1 << 20),
			MaxChips:       best,
		}
		if pt, err := explore.MinChipsOffChipFree(core.DefaultSystem(1), wl, best); err == nil {
			row.MinChipsNoL3 = pt.Chips
		}
		rep, err := evalpool.Run(core.DefaultSystem(best), wl)
		if err != nil {
			return nil, err
		}
		row.LatencyMSAtBest = rep.Seconds * 1e3
		rows = append(rows, row)
	}
	return rows, nil
}
