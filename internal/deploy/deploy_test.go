package deploy

import (
	"runtime"
	"testing"

	"mcudist/internal/hw"
	"mcudist/internal/kernels"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

func mustTP(t *testing.T, cfg model.Config, n int) *partition.Plan {
	t.Helper()
	p, err := partition.NewTensorParallel(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustDeploy(t *testing.T, p *partition.Plan, mode model.Mode, s int) *Deployment {
	t.Helper()
	d, err := NewBatched(p, hw.Siracusa(), mode, s, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// phaseCost sums one phase's kernel sequence on a chip.
func phaseCost(ops []kernels.Cost) kernels.Cost {
	var total kernels.Cost
	for _, op := range ops {
		total.Cycles += op.Cycles
		total.MACs += op.MACs
		total.WeightBytes += op.WeightBytes
		total.ActInBytes += op.ActInBytes
		total.ActOutBytes += op.ActOutBytes
	}
	return total
}

// footprintOf is chip 0's L2 footprint at the tier the planner picks
// for it on Siracusa.
func footprintOf(p *partition.Plan, mode model.Mode, s int) footprint {
	_, fp := chooseTier(p, 0, mode, s, 1, hw.Siracusa())
	return fp
}

// l3BytesPerForward is the steady-state L3 weight traffic of one full
// forward pass across all chips.
func l3BytesPerForward(d *Deployment) int64 {
	var total int64
	for _, c := range d.Chips {
		total += c.StreamBytesPerBlock * int64(c.Blocks)
	}
	return total
}

// The tier table below is the capacity arithmetic that produces every
// fit statement in the paper. These are the load-bearing assertions of
// the reproduction.
func TestTinyLlamaAutoregressiveTiers(t *testing.T) {
	cfg := model.TinyLlama42M()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	want := map[int]Tier{
		1: TierStreamed,       // 3 MiB block > usable L2
		2: TierStreamed,       // 1.5 MiB + KV + act still too big
		4: TierResidentSingle, // one 768 KiB slice fits, two do not
		8: TierDoubleBuffered, // paper: super-linear at 8
	}
	for n, wantTier := range want {
		p := mustTP(t, cfg, n)
		d := mustDeploy(t, p, model.Autoregressive, s)
		if got := d.WorstTier(); got != wantTier {
			t.Errorf("n=%d: tier %v, want %v (footprint %v, usable %d)",
				n, got, wantTier, footprintOf(p, model.Autoregressive, s), hw.Siracusa().UsableL2Bytes())
		}
	}
}

func TestScaledTinyLlamaTiers(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	s := model.PaperSeqLen(cfg, model.Autoregressive)
	want := map[int]Tier{
		8:  TierDoubleBuffered, // paper: double-buffering at 8 and 16
		16: TierDoubleBuffered,
		32: TierResidentAll, // paper: all weights fit on-chip at 32
		64: TierResidentAll,
	}
	for n, wantTier := range want {
		p := mustTP(t, cfg, n)
		d := mustDeploy(t, p, model.Autoregressive, s)
		if got := d.WorstTier(); got != wantTier {
			t.Errorf("n=%d: tier %v, want %v (footprint %v)", n, got, wantTier, footprintOf(p, model.Autoregressive, s))
		}
	}
}

func TestMobileBERTTiers(t *testing.T) {
	cfg := model.MobileBERT512()
	s := model.PaperSeqLen(cfg, model.Prompt)
	want := map[int]Tier{
		1: TierStreamed,
		2: TierResidentSingle, // L3 still exposed at 2 chips
		4: TierDoubleBuffered, // paper: super-linear at 4
	}
	for n, wantTier := range want {
		p := mustTP(t, cfg, n)
		d := mustDeploy(t, p, model.Prompt, s)
		if got := d.WorstTier(); got != wantTier {
			t.Errorf("n=%d: tier %v, want %v (footprint %v)", n, got, wantTier, footprintOf(p, model.Prompt, s))
		}
	}
}

func TestResidentAllHasNoL3Traffic(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	d := mustDeploy(t, mustTP(t, cfg, 32), model.Autoregressive, 128)
	if l3BytesPerForward(d) != 0 {
		t.Fatalf("resident-all deployment moves %d L3 bytes", l3BytesPerForward(d))
	}
}

func TestStreamingTiersMoveWholeModelPerForward(t *testing.T) {
	cfg := model.TinyLlama42M()
	for _, n := range []int{1, 2, 4, 8} {
		d := mustDeploy(t, mustTP(t, cfg, n), model.Autoregressive, 128)
		if got := l3BytesPerForward(d); got != int64(cfg.TotalWeightBytes()) {
			t.Errorf("n=%d: L3 bytes per forward %d, want full model %d",
				n, got, cfg.TotalWeightBytes())
		}
	}
}

func TestFootprintFitsBudget(t *testing.T) {
	cfg := model.TinyLlama42M()
	budget := hw.Siracusa().UsableL2Bytes()
	for _, n := range []int{1, 2, 4, 8} {
		p := mustTP(t, cfg, n)
		d := mustDeploy(t, p, model.Autoregressive, 128)
		for c := range d.Chips {
			tier, fp := chooseTier(p, c, model.Autoregressive, 128, 1, hw.Siracusa())
			if tier != d.Chips[c].Tier {
				t.Errorf("n=%d chip %d: lowered at tier %v, chooseTier says %v", n, c, d.Chips[c].Tier, tier)
			}
			if !fp.FitsIn(budget) {
				t.Errorf("n=%d chip %d footprint %v exceeds budget %d", n, c, fp, budget)
			}
		}
	}
}

func TestOpsCoverAllMACs(t *testing.T) {
	// The summed per-chip MACs must equal the single-chip MACs: no
	// work is dropped or duplicated by the partitioning.
	cfg := model.TinyLlama42M()
	for _, mode := range []model.Mode{model.Autoregressive, model.Prompt} {
		s := model.PaperSeqLen(cfg, mode)
		single := mustDeploy(t, mustTP(t, cfg, 1), mode, s)
		singleMACs := phaseCost(single.Chips[0].MHSA.Ops).MACs + phaseCost(single.Chips[0].FC.Ops).MACs
		for _, n := range []int{2, 4, 8} {
			d := mustDeploy(t, mustTP(t, cfg, n), mode, s)
			var total int64
			for c := range d.Chips {
				total += phaseCost(d.Chips[c].MHSA.Ops).MACs + phaseCost(d.Chips[c].FC.Ops).MACs
			}
			if total != singleMACs {
				t.Errorf("%v n=%d: distributed MACs %d != single %d", mode, n, total, singleMACs)
			}
		}
	}
}

func TestPerChipCyclesShrinkWithChips(t *testing.T) {
	cfg := model.TinyLlama42M()
	prev := -1.0
	for _, n := range []int{1, 2, 4, 8} {
		d := mustDeploy(t, mustTP(t, cfg, n), model.Prompt, 16)
		c := phaseCost(d.Chips[0].MHSA.Ops).Cycles + phaseCost(d.Chips[0].FC.Ops).Cycles
		if prev > 0 && c >= prev {
			t.Errorf("n=%d: per-chip cycles %g did not shrink from %g", n, c, prev)
		}
		prev = c
	}
}

func TestSubLinearComputeScaling(t *testing.T) {
	// Total compute across chips grows with the chip count (the
	// utilization-loss effect the paper reports for MobileBERT).
	cfg := model.MobileBERT512()
	single := mustDeploy(t, mustTP(t, cfg, 1), model.Prompt, 268)
	singleCycles := phaseCost(single.Chips[0].MHSA.Ops).Cycles + phaseCost(single.Chips[0].FC.Ops).Cycles
	multi := mustDeploy(t, mustTP(t, cfg, 4), model.Prompt, 268)
	var total float64
	for c := range multi.Chips {
		total += phaseCost(multi.Chips[c].MHSA.Ops).Cycles + phaseCost(multi.Chips[c].FC.Ops).Cycles
	}
	if total <= singleCycles {
		t.Fatalf("4-chip aggregate compute %g <= single-chip %g: utilization loss missing", total, singleCycles)
	}
	if total > 1.5*singleCycles {
		t.Fatalf("4-chip aggregate compute %g implausibly high vs %g", total, singleCycles)
	}
}

func TestCollectivePayloads(t *testing.T) {
	cfg := model.TinyLlama42M()
	d := mustDeploy(t, mustTP(t, cfg, 8), model.Autoregressive, 128)
	if d.ReducePayload != 512 || d.BcastPayload != 512 {
		t.Fatalf("payloads %d/%d, want 512/512", d.ReducePayload, d.BcastPayload)
	}
	dp := mustDeploy(t, mustTP(t, cfg, 8), model.Prompt, 16)
	if dp.ReducePayload != 16*512 {
		t.Fatalf("prompt reduce payload %d", dp.ReducePayload)
	}
}

func TestReplicatedBaselineLowering(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, err := partition.NewReplicated(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Prompt mode: rows split across chips.
	d, err := NewBatched(p, hw.Siracusa(), model.Prompt, 16, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows := d.Chips[0].MHSA.Ops[0].M; rows != 4 {
		t.Fatalf("chip 0 rows = %d, want 4", rows)
	}
	// Full weights per chip: replicated never fits TinyLlama.
	if d.WorstTier() != TierStreamed {
		t.Fatalf("replicated tier %v, want streamed", d.WorstTier())
	}
	// Autoregressive: one active chip, three idle.
	da, err := NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, c := range da.Chips {
		if len(c.MHSA.Ops) > 0 {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("replicated AR activates %d chips, want 1", active)
	}
}

func TestPipelineBaselineLowering(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, err := partition.NewPipeline(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewBatched(p, hw.Siracusa(), model.Prompt, 16, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range d.Chips {
		if c.Blocks != 2 {
			t.Fatalf("stage %d holds %d blocks", i, c.Blocks)
		}
		if len(c.MHSA.Ops) == 0 {
			t.Fatalf("stage %d has no ops", i)
		}
	}
}

// A uniform tensor-parallel board runs one program N times: every chip
// points at the one program the lowering built, so lowering 64 chips
// allocates a pointer per chip, not a program per chip.
func TestUniformPlanSharesOneProgram(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	p := mustTP(t, cfg, 64)
	s := model.PaperSeqLen(cfg, model.Prompt)
	lower := func() (*Deployment, error) {
		return NewBatched(p, hw.Siracusa(), model.Prompt, s, 1, Options{})
	}
	d, err := lower()
	if err != nil {
		t.Fatal(err)
	}
	for c, cd := range d.Chips {
		if cd != d.Chips[0] {
			t.Fatalf("chip %d runs a program of its own; a uniform plan shares chip 0's", c)
		}
	}
	const budget = 8 << 10
	if bytes := bytesPerRun(5, func() { _, _ = lower() }); bytes > budget {
		t.Errorf("lowering 64 uniform chips allocates %d B per run, want at most %d", bytes, budget)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestModeValidation(t *testing.T) {
	cfg := model.MobileBERT512()
	p := mustTP(t, cfg, 2)
	if _, err := NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, Options{}); err == nil {
		t.Fatal("autoregressive encoder accepted")
	}
	ll := mustTP(t, model.TinyLlama42M(), 2)
	if _, err := NewBatched(ll, hw.Siracusa(), model.Prompt, 0, 1, Options{}); err == nil {
		t.Fatal("zero sequence length accepted")
	}
}

func TestTierStringAndOffChipFree(t *testing.T) {
	if TierStreamed.OffChipFree() || TierResidentSingle.OffChipFree() {
		t.Fatal("streaming tiers claim off-chip freedom")
	}
	if !TierDoubleBuffered.OffChipFree() || !TierResidentAll.OffChipFree() {
		t.Fatal("resident tiers deny off-chip freedom")
	}
	for _, tier := range []Tier{TierStreamed, TierResidentSingle, TierDoubleBuffered, TierResidentAll} {
		if tier.String() == "" {
			t.Fatal("empty tier name")
		}
	}
}

func TestWeightBytesConservedAcrossChips(t *testing.T) {
	cfg := model.TinyLlama42M()
	for _, n := range []int{2, 4, 8} {
		d := mustDeploy(t, mustTP(t, cfg, n), model.Autoregressive, 128)
		var weightBytes int64
		for c := range d.Chips {
			weightBytes += phaseCost(d.Chips[c].MHSA.Ops).WeightBytes + phaseCost(d.Chips[c].FC.Ops).WeightBytes
		}
		if weightBytes != int64(cfg.BlockWeightBytes()) {
			t.Errorf("n=%d: per-block weight bytes touched %d, want %d", n, weightBytes, cfg.BlockWeightBytes())
		}
	}
}

func TestGatedFFNOpsLarger(t *testing.T) {
	cfg := model.TinyLlama42M()
	gated := cfg
	gated.FFN = model.FFNGated
	d1 := mustDeploy(t, mustTP(t, cfg, 4), model.Prompt, 16)
	d2 := mustDeploy(t, mustTP(t, gated, 4), model.Prompt, 16)
	if phaseCost(d2.Chips[0].FC.Ops).MACs <= phaseCost(d1.Chips[0].FC.Ops).MACs {
		t.Fatal("gated FFN should cost more MACs")
	}
}
