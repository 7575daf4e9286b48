package deploy

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mcudist/internal/collective"
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

// chipCost sums a chip's kernels over every phase of its program.
func chipCost(cd *ChipDeploy) kernels.Cost {
	var ops []kernels.Cost
	for _, ph := range cd.Phases {
		ops = append(ops, ph.Ops...)
	}
	return phaseCost(ops)
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
		singleMACs := chipCost(single.Chips[0]).MACs
		for _, n := range []int{2, 4, 8} {
			d := mustDeploy(t, mustTP(t, cfg, n), mode, s)
			var total int64
			for c := range d.Chips {
				total += chipCost(d.Chips[c]).MACs
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
		c := chipCost(d.Chips[0]).Cycles
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
	singleCycles := chipCost(single.Chips[0]).Cycles
	multi := mustDeploy(t, mustTP(t, cfg, 4), model.Prompt, 268)
	var total float64
	for c := range multi.Chips {
		total += chipCost(multi.Chips[c]).Cycles
	}
	if total <= singleCycles {
		t.Fatalf("4-chip aggregate compute %g <= single-chip %g: utilization loss missing", total, singleCycles)
	}
	if total > 1.5*singleCycles {
		t.Fatalf("4-chip aggregate compute %g implausibly high vs %g", total, singleCycles)
	}
}

// TestCollectivePayloads holds every strategy's block program to its
// shape and to the payload formulas: each stage's chip range and repeat
// count; the sync steps' classes, which are the deployment's Classes in
// order, or none when at most one replicated chip has rows; and every
// payload — the tensor-parallel reduce and broadcast, the replicated
// K/V (⌈S/n⌉·2P) and output (⌈S/n⌉·E) exchanges, and the pipeline
// handoff (S·E), in activation bytes.
func TestCollectivePayloads(t *testing.T) {
	tl := model.TinyLlama42M()
	builders := []func(model.Config, int) (*partition.Plan, error){
		partition.NewTensorParallel, partition.NewReplicated, partition.NewPipeline,
	}
	for _, w := range []struct {
		cfg   model.Config
		mode  model.Mode
		chips []int
	}{
		{tl, model.Prompt, []int{1, 2, 8}},
		{tl, model.Autoregressive, []int{1, 2, 8}},
		{model.MobileBERT512(), model.Prompt, []int{1, 2, 4}}, // 4 heads
	} {
		cfg := w.cfg
		s := model.PaperSeqLen(cfg, w.mode)
		sq := s
		if w.mode == model.Autoregressive {
			sq = 1
		}
		act := int64(cfg.ActBytes)
		for _, build := range builders {
			for _, n := range w.chips {
				p, err := build(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s %v %v n=%d", cfg.Name, w.mode, p.Strategy, n)
				d := mustDeploy(t, p, w.mode, s)
				if !slices.Equal(d.Classes, collective.ActiveClasses(p.Strategy, w.mode)) {
					t.Errorf("%s: classes %v, want the collective schedule's", name, d.Classes)
				}

				want := []partition.Range{{Lo: 0, Hi: n}}
				if p.Strategy == partition.Pipeline {
					want = want[:0]
					for c := 0; c < n; c++ {
						want = append(want, partition.Range{Lo: c, Hi: c + 1})
					}
				}
				var got []partition.Range
				var syncs []*Sync
				for _, st := range d.Stages {
					got = append(got, st.Chips)
					if st.Blocks != p.BlocksOnChip(st.Chips.Lo) {
						t.Errorf("%s: stage %v repeats %d times, want its %d blocks",
							name, st.Chips, st.Blocks, p.BlocksOnChip(st.Chips.Lo))
					}
					for _, step := range st.Steps {
						if step.Sync != nil {
							syncs = append(syncs, step.Sync)
						}
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: stages over %v, want %v", name, got, want)
				}

				wantClasses := d.Classes
				if p.Strategy == partition.Replicated && min(n, sq) <= 1 {
					wantClasses = nil // one chip has rows: nothing to exchange
				}
				var classes []collective.SyncClass
				for _, sy := range syncs {
					classes = append(classes, sy.Class)
				}
				if !slices.Equal(classes, wantClasses) {
					t.Errorf("%s: sync classes %v, want %v", name, classes, wantClasses)
				}

				rows := int64((sq + n - 1) / n)
				for _, sy := range syncs {
					var red, bc int64
					switch sy.Class {
					case collective.KVExchange:
						red, bc = rows*int64(2*cfg.P)*act, rows*int64(2*cfg.P)*act
					case collective.OutputExchange:
						red, bc = rows*int64(cfg.E)*act, rows*int64(cfg.E)*act
					default:
						red, bc = p.ReducePayloadBytes(sq), p.BcastPayloadBytes(sq)
					}
					if sy.ReducePayload != red || sy.BcastPayload != bc {
						t.Errorf("%s: %v payloads %d/%d, want %d/%d",
							name, sy.Class, sy.ReducePayload, sy.BcastPayload, red, bc)
					}
				}
				var handoff int64
				if p.Strategy == partition.Pipeline {
					handoff = int64(sq) * int64(cfg.E) * act
				}
				if d.Handoff != handoff {
					t.Errorf("%s: handoff %d, want %d", name, d.Handoff, handoff)
				}
			}
		}
	}

	// The formulas at two points: one decode row and 16 prompt rows of
	// E=512 int8 activations.
	d := mustDeploy(t, mustTP(t, tl, 8), model.Autoregressive, 128)
	if sy := d.Stages[0].Steps[1].Sync; sy.ReducePayload != 512 || sy.BcastPayload != 512 {
		t.Fatalf("payloads %d/%d, want 512/512", sy.ReducePayload, sy.BcastPayload)
	}
	dp := mustDeploy(t, mustTP(t, tl, 8), model.Prompt, 16)
	if sy := dp.Stages[0].Steps[3].Sync; sy.ReducePayload != 16*512 {
		t.Fatalf("prompt reduce payload %d", sy.ReducePayload)
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
	if rows := d.Chips[0].Phases[0].Ops[0].M; rows != 4 {
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
		if len(c.Phases[0].Ops) > 0 {
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
		if len(c.Phases[0].Ops) == 0 {
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
			weightBytes += chipCost(d.Chips[c]).WeightBytes
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
	if phaseCost(d2.Chips[0].Phases[1].Ops).MACs <= phaseCost(d1.Chips[0].Phases[1].Ops).MACs {
		t.Fatal("gated FFN should cost more MACs")
	}
}
