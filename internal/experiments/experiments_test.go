package experiments

import (
	"fmt"
	"testing"

	"mcudist/internal/deploy"
)

// These tests are the reproduction contract: every figure and table of
// the paper must regenerate with the shapes the paper reports.

func TestFig4aShape(t *testing.T) {
	res, err := Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	r8, err := res.Row(8)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 26.1× super-linear at 8 chips.
	if r8.Speedup <= 8 {
		t.Errorf("8-chip AR speedup %g not super-linear", r8.Speedup)
	}
	if r8.Speedup < 15 || r8.Speedup > 40 {
		t.Errorf("8-chip AR speedup %g far from paper's 26.1", r8.Speedup)
	}
	// L3 dominates below the fit boundary.
	for _, n := range []int{1, 2, 4} {
		r, err := res.Row(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Breakdown.L3 < r.Breakdown.Compute {
			t.Errorf("n=%d: L3 %g below compute %g", n, r.Breakdown.L3, r.Breakdown.Compute)
		}
		if r.Tier.OffChipFree() {
			t.Errorf("n=%d: tier %v should not be off-chip free", n, r.Tier)
		}
	}
	if r8.Breakdown.L3 != 0 {
		t.Errorf("8-chip L3 %g, want 0", r8.Breakdown.L3)
	}
}

func TestFig4bShape(t *testing.T) {
	res, err := Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	r8, err := res.Row(8)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 9.9× super-linear but below the AR figure.
	if r8.Speedup <= 8 || r8.Speedup > 16 {
		t.Errorf("prompt 8-chip speedup %g outside (8,16] (paper: 9.9)", r8.Speedup)
	}
	// Compute is the largest contributor once L3 is gone.
	b := r8.Breakdown
	if b.Compute < b.L2L1 || b.Compute < b.C2C {
		t.Errorf("prompt 8-chip compute %g not dominant (%+v)", b.Compute, b)
	}
}

func TestFig4cShape(t *testing.T) {
	res, err := Fig4c()
	if err != nil {
		t.Fatal(err)
	}
	r4, err := res.Row(4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Speedup <= 4 || r4.Speedup > 8 {
		t.Errorf("MobileBERT 4-chip speedup %g outside (4,8] (paper: 4.7)", r4.Speedup)
	}
	if !r4.Tier.OffChipFree() {
		t.Errorf("MobileBERT at 4 chips should be off-chip free, got %v", r4.Tier)
	}
}

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := res.Point(1, false)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := res.Point(8, false)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: similar energy at the fit boundary, much lower EDP.
	ratio := p8.EnergyMJ / p1.EnergyMJ
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("8-chip energy ratio %g, want similar", ratio)
	}
	if p8.EDP >= p1.EDP/10 {
		t.Errorf("EDP did not improve by 10×: %g vs %g", p1.EDP, p8.EDP)
	}
	// Scaled model: energy drops once weights become resident (32+).
	s16, err := res.Point(16, true)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := res.Point(32, true)
	if err != nil {
		t.Fatal(err)
	}
	if s32.EnergyMJ >= s16.EnergyMJ {
		t.Errorf("32-chip scaled energy %g not below 16-chip %g", s32.EnergyMJ, s16.EnergyMJ)
	}
	if s16.Tier != deploy.TierDoubleBuffered || s32.Tier != deploy.TierResidentAll {
		t.Errorf("scaled tiers 16=%v 32=%v, want double-buffered/resident-all", s16.Tier, s32.Tier)
	}
}

func TestFig5bShape(t *testing.T) {
	res, err := Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := res.Point(1, false)
	p8, _ := res.Point(8, false)
	if p8.EnergyMJ > p1.EnergyMJ*1.05 {
		t.Errorf("prompt 8-chip energy %g above 1-chip %g (paper: reduced)", p8.EnergyMJ, p1.EnergyMJ)
	}
	s64, err := res.Point(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if s64.Tier != deploy.TierResidentAll {
		t.Errorf("scaled prompt 64-chip tier %v", s64.Tier)
	}
}

func TestFig5cShape(t *testing.T) {
	res, err := Fig5c()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	p4, _ := res.Point(4, false)
	p1, _ := res.Point(1, false)
	if p4.Cycles >= p1.Cycles {
		t.Error("MobileBERT 4-chip not faster")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	byChips := map[int]Fig6Row{}
	for _, r := range res.Rows {
		byChips[r.Chips] = r
	}
	// Paper: AR super-linear for 8–32, quasi-linear at 64 (60.1×).
	for _, n := range []int{8, 16, 32} {
		if byChips[n].AutoregressiveSpeedup <= float64(n) {
			t.Errorf("scaled AR speedup at %d chips = %g, want super-linear", n, byChips[n].AutoregressiveSpeedup)
		}
	}
	s64 := byChips[64].AutoregressiveSpeedup
	if s64 < 40 || s64 > 100 {
		t.Errorf("scaled AR speedup at 64 = %g, far from paper's 60.1", s64)
	}
	// Prompt: diminishing returns past 16 chips.
	p16, p64 := byChips[16].PromptSpeedup, byChips[64].PromptSpeedup
	if p64 > p16*1.35 {
		t.Errorf("prompt speedup kept scaling: 16→%g 64→%g (paper: diminishing)", p16, p64)
	}
	if byChips[8].PromptSpeedup <= 8 {
		t.Errorf("scaled prompt at 8 chips %g not super-linear", byChips[8].PromptSpeedup)
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	var ours, repl, pipe Table1Row
	for _, r := range rows {
		switch r.Work {
		case "Ours (tensor-parallel)":
			ours = r
		case "When the Edge Meets Transformers [21]":
			repl = r
		default:
			pipe = r
		}
	}
	if ours.WeightDuplication || ours.Pipelining {
		t.Error("our row should have no duplication and no pipelining")
	}
	if !repl.WeightDuplication {
		t.Error("replicated row should duplicate weights")
	}
	// The paper's scheme must beat both baselines in both modes.
	if ours.ARCycles >= repl.ARCycles || ours.ARCycles >= pipe.ARCycles {
		t.Errorf("ours AR %g not fastest (repl %g, pipe %g)", ours.ARCycles, repl.ARCycles, pipe.ARCycles)
	}
	if ours.PromptCycles >= repl.PromptCycles || ours.PromptCycles >= pipe.PromptCycles {
		t.Errorf("ours prompt %g not fastest (repl %g, pipe %g)", ours.PromptCycles, repl.PromptCycles, pipe.PromptCycles)
	}
	// Single-user AR latency: neither baseline achieves real speedup.
	if repl.ARSpeedup > 1.5 || pipe.ARSpeedup > 1.5 {
		t.Errorf("baselines should not accelerate single-token AR: repl %g pipe %g", repl.ARSpeedup, pipe.ARSpeedup)
	}
}

func TestHeadlineMetrics(t *testing.T) {
	h, err := RunHeadline()
	if err != nil {
		t.Fatal(err)
	}
	paper := PaperHeadline()
	if h.SyncsPerBlock != paper.SyncsPerBlock {
		t.Errorf("syncs per block %d, want %d", h.SyncsPerBlock, paper.SyncsPerBlock)
	}
	if h.ReplicationFactor != 1.0 {
		t.Errorf("replication factor %g, want 1", h.ReplicationFactor)
	}
	if h.ARSpeedup8 <= 8 {
		t.Errorf("AR speedup %g not super-linear", h.ARSpeedup8)
	}
	if h.PromptSpeedup8 <= 8 {
		t.Errorf("prompt speedup %g not super-linear", h.PromptSpeedup8)
	}
	if h.MobileBERTSpeedup4 <= 4 {
		t.Errorf("MobileBERT speedup %g not super-linear", h.MobileBERTSpeedup4)
	}
	if h.AREDPImprovement < 15 {
		t.Errorf("EDP improvement %g too low", h.AREDPImprovement)
	}
	if h.ScaledEnergyReduction64 <= 1 {
		t.Errorf("scaled energy reduction %g, want > 1", h.ScaledEnergyReduction64)
	}
	if h.ARLatency8MS <= 0 || h.AREnergy8MJ <= 0 {
		t.Error("headline latency/energy not positive")
	}
}

func TestAblationReduceTopology(t *testing.T) {
	rows, err := AblationReduceTopology()
	if err != nil {
		t.Fatal(err)
	}
	// At 64 chips the hierarchical tree must beat flat all-to-one.
	var hier, flat float64
	for _, r := range rows {
		if r.Chips == 64 {
			if r.Label == "hierarchical-4" {
				hier = r.Cycles
			} else {
				flat = r.Cycles
			}
		}
	}
	if hier == 0 || flat == 0 {
		t.Fatal("missing 64-chip rows")
	}
	if hier >= flat {
		t.Errorf("hierarchical %g not faster than flat %g at 64 chips", hier, flat)
	}
}

func TestAblationReducePrecision(t *testing.T) {
	rows, err := AblationReducePrecision()
	if err != nil {
		t.Fatal(err)
	}
	var int8AR, int32AR int64
	for _, r := range rows {
		switch r.Label {
		case "autoregressive-int8-exchange":
			int8AR = r.C2CBytes
		case "autoregressive-int32-exchange":
			int32AR = r.C2CBytes
		}
	}
	// int32 exchange moves more reduce traffic (reduce payload 4×;
	// broadcast unchanged).
	if int32AR <= int8AR {
		t.Errorf("int32 exchange traffic %d not above int8 %d", int32AR, int8AR)
	}
}

func TestAblationPrefetch(t *testing.T) {
	rows, err := AblationPrefetch()
	if err != nil {
		t.Fatal(err)
	}
	var hidden, exposed float64
	for _, r := range rows {
		if r.Label == "prefetch-overlapped" {
			hidden = r.Cycles
		} else {
			exposed = r.Cycles
		}
	}
	if exposed <= hidden {
		t.Errorf("exposed prefetch %g not slower than overlapped %g", exposed, hidden)
	}
}

func TestAblationActivationSpill(t *testing.T) {
	rows, err := AblationActivationSpill()
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string, chips int) AblationRow {
		for _, r := range rows {
			if r.Label == label && r.Chips == chips {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", label, chips)
		return AblationRow{}
	}
	with1 := get("with-spill", 1)
	no1 := get("no-spill", 1)
	// Spill only affects capacity-starved (single-chip) systems.
	if with1.Cycles <= no1.Cycles {
		t.Error("spill did not slow the single-chip system")
	}
	with4 := get("with-spill", 4)
	no4 := get("no-spill", 4)
	if with4.Cycles != no4.Cycles {
		t.Error("spill affected the 4-chip (double-buffered) system")
	}
}

func TestAblationDegradedLink(t *testing.T) {
	rows, err := AblationDegradedLink()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	healthy := byLabel["healthy"].Cycles
	leaf := byLabel["leaf-chip7-quarter-rate"].Cycles
	root := byLabel["root-chip0-quarter-rate"].Cycles
	if leaf <= healthy {
		t.Errorf("degrading a leaf link did not slow the system: %g vs %g", leaf, healthy)
	}
	if root <= leaf {
		t.Errorf("degrading the root (%g) should hurt more than a leaf (%g)", root, leaf)
	}
	// Traffic is unchanged — only timing degrades.
	if byLabel["healthy"].C2CBytes != byLabel["root-chip0-quarter-rate"].C2CBytes {
		t.Error("degradation changed traffic volume")
	}
}

func TestAblationStraggler(t *testing.T) {
	rows, err := AblationStraggler()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Runtime grows monotonically as the straggler slows.
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycles <= rows[i-1].Cycles {
			t.Errorf("straggler at step %d did not slow the system: %g vs %g",
				i, rows[i].Cycles, rows[i-1].Cycles)
		}
	}
	// A half-speed chip should cost well under 2× total (only its
	// compute slows, not DMA or links), but clearly more than nothing.
	healthy, half := rows[0].Cycles, rows[2].Cycles
	if half < 1.1*healthy || half > 2*healthy {
		t.Errorf("half-speed straggler impact %g/%g out of expected band", half, healthy)
	}
}

func TestAblationGroupSizeAndLink(t *testing.T) {
	gs, err := AblationGroupSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("group-size rows = %d", len(gs))
	}
	lb, err := AblationLinkBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	// More link bandwidth must not slow things down.
	for i := 1; i < len(lb); i++ {
		if lb[i].Cycles > lb[i-1].Cycles*1.001 {
			t.Errorf("link bandwidth increase slowed runtime: %v", lb)
		}
	}
}

// Row returns the breakdown row for a chip count.
func (f *Fig4Result) Row(chips int) (BreakdownRow, error) {
	for _, r := range f.Rows {
		if r.Chips == chips {
			return r, nil
		}
	}
	return BreakdownRow{}, fmt.Errorf("experiments: no row for %d chips", chips)
}

// Point returns the Fig. 5 point for a chip count and model.
func (f *Fig5Result) Point(chips int, scaled bool) (Fig5Point, error) {
	for _, p := range f.Points {
		if p.Chips == chips && p.Scaled == scaled {
			return p, nil
		}
	}
	return Fig5Point{}, fmt.Errorf("experiments: no point for %d chips (scaled=%v)", chips, scaled)
}
