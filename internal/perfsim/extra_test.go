package perfsim

import (
	"testing"
	"testing/quick"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// Property: for random chip counts, modes, and sequence lengths, the
// breakdown always sums to the total and every bucket is non-negative.
func TestPropertyBreakdownConsistency(t *testing.T) {
	cfg := model.TinyLlama42M()
	f := func(nRaw, sRaw uint8, prompt bool) bool {
		n := 1 + int(nRaw)%8
		s := 1 + int(sRaw)%128
		mode := model.Autoregressive
		if prompt {
			mode = model.Prompt
		}
		p, err := partition.NewTensorParallel(cfg, n)
		if err != nil {
			return false
		}
		d, err := deploy.NewBatched(p, hw.Siracusa(), mode, s, 1, deploy.Options{})
		if err != nil {
			return false
		}
		res, err := Run(d)
		if err != nil {
			return false
		}
		b := res.Breakdown
		if b.Compute < 0 || b.L2L1 < 0 || b.L3 < 0 || b.C2C < 0 {
			return false
		}
		diff := b.Total() - res.TotalCycles
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-6*res.TotalCycles+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding chips never increases total runtime for the
// tensor-parallel strategy on the paper's workloads.
func TestPropertyMoreChipsNotSlower(t *testing.T) {
	cfg := model.TinyLlama42M()
	prev := -1.0
	for n := 1; n <= 8; n++ {
		p, err := partition.NewTensorParallel(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		d, err := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && res.TotalCycles > prev {
			t.Errorf("n=%d slower than n=%d: %g > %g", n, n-1, res.TotalCycles, prev)
		}
		prev = res.TotalCycles
	}
}

// GQA models simulate end to end and benefit from the smaller KV
// projections.
func TestGQASimulation(t *testing.T) {
	gqa := model.SmolLM135M()
	p, err := partition.NewTensorParallel(gqa, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 || res.Syncs != 2*gqa.L {
		t.Fatalf("GQA sim: cycles %g syncs %d", res.TotalCycles, res.Syncs)
	}

	mha := gqa
	mha.KVHeads = 0
	pm, _ := partition.NewTensorParallel(mha, 3)
	dm, err := deploy.NewBatched(pm, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resM, err := Run(dm)
	if err != nil {
		t.Fatal(err)
	}
	// Same chip count, smaller K/V projections: GQA must not be
	// slower.
	if res.TotalCycles > resM.TotalCycles {
		t.Fatalf("GQA %g slower than MHA %g at equal chips", res.TotalCycles, resM.TotalCycles)
	}
}

// Group size 2 trees still simulate correctly (deep trees).
func TestDeepTreeSimulation(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	p, _ := partition.NewTensorParallel(cfg, 64)
	hwp := hw.Siracusa()
	hwp.GroupSize = 2
	d, err := deploy.NewBatched(p, hwp, model.Autoregressive, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeDepth != 6 { // 64 -> 32 -> 16 -> 8 -> 4 -> 2 -> 1
		t.Fatalf("tree depth %d, want 6", res.TreeDepth)
	}
}

// Replicated prompt mode with more chips than rows leaves chips idle
// but still completes.
func TestReplicatedMoreChipsThanRows(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewReplicated(cfg, 8)
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, 4, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 {
		t.Fatal("no runtime")
	}
	// Chips 4–7 receive no rows; chip 4 still accumulates partials as
	// its group's reduce leader, so exactly 3 chips are fully idle.
	idle := 0
	for i := range res.PerChip {
		if res.PerChip[i].ComputeCycles == 0 {
			idle++
		}
	}
	if idle != 3 {
		t.Fatalf("fully idle chips = %d, want 3 (rowless non-leaders)", idle)
	}
}

// Pipeline stages with a single chip degenerate to the single-chip
// runtime (no handoffs).
func TestPipelineSingleStage(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewPipeline(cfg, 1)
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, 16, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalC2CBytes != 0 {
		t.Fatal("single-stage pipeline moved link bytes")
	}
}
