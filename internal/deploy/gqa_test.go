package deploy

import (
	"testing"

	"mcudist/internal/hw"
	"mcudist/internal/model"
)

func TestGQADeploymentMACsConserved(t *testing.T) {
	cfg := model.SmolLM135M()
	for _, mode := range []model.Mode{model.Autoregressive, model.Prompt} {
		s := 64
		single := mustDeploy(t, mustTP(t, cfg, 1), mode, s)
		singleMACs := chipCost(single.Chips[0]).MACs
		d := mustDeploy(t, mustTP(t, cfg, 3), mode, s)
		var total int64
		for c := range d.Chips {
			total += chipCost(d.Chips[c]).MACs
		}
		if total != singleMACs {
			t.Errorf("%v: distributed MACs %d != single %d", mode, total, singleMACs)
		}
	}
}

func TestGQAWeightBytesConserved(t *testing.T) {
	cfg := model.SmolLM135M()
	d := mustDeploy(t, mustTP(t, cfg, 3), model.Autoregressive, 64)
	var weightBytes int64
	for c := range d.Chips {
		weightBytes += chipCost(d.Chips[c]).WeightBytes
	}
	if weightBytes != int64(cfg.BlockWeightBytes()) {
		t.Errorf("per-block weights touched %d, want %d", weightBytes, cfg.BlockWeightBytes())
	}
}

func TestGQAKVTrafficSmaller(t *testing.T) {
	gqa := model.SmolLM135M()
	mha := gqa
	mha.KVHeads = 0
	// Same chip count: the GQA chip's MHSA phase moves fewer bytes
	// (smaller K/V projections and KV cache reads).
	dg := mustDeploy(t, mustTP(t, gqa, 3), model.Autoregressive, 128)
	dm := mustDeploy(t, mustTP(t, mha, 3), model.Autoregressive, 128)
	if phaseCost(dg.Chips[0].Phases[0].Ops).TotalL2L1Bytes() >= phaseCost(dm.Chips[0].Phases[0].Ops).TotalL2L1Bytes() {
		t.Errorf("GQA MHSA bytes %d not below MHA %d",
			phaseCost(dg.Chips[0].Phases[0].Ops).TotalL2L1Bytes(), phaseCost(dm.Chips[0].Phases[0].Ops).TotalL2L1Bytes())
	}
}

func TestDeployOptionsNoSpill(t *testing.T) {
	cfg := model.MobileBERT512()
	p := mustTP(t, cfg, 1)
	with, err := NewBatched(p, hw.Siracusa(), model.Prompt, 268, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewBatched(p, hw.Siracusa(), model.Prompt, 268, 1, Options{NoActivationSpill: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Chips[0].Tier != TierStreamed {
		t.Fatalf("expected streamed tier, got %v", with.Chips[0].Tier)
	}
	l3 := func(ph Phase) int64 { return ph.L3Weights + ph.L3Spill }
	if l3(without.Chips[0].Phases[0]) >= l3(with.Chips[0].Phases[0]) {
		t.Error("disabling spill did not shrink exposed L3 bytes")
	}
	// Weight traffic is identical either way.
	if l3BytesPerForward(with) != l3BytesPerForward(without) {
		t.Error("spill option changed weight traffic")
	}
}

func TestStreamedExposureCoversWeightsAndSpill(t *testing.T) {
	cfg := model.TinyLlama42M()
	d := mustDeploy(t, mustTP(t, cfg, 1), model.Autoregressive, 128)
	cd := d.Chips[0]
	if cd.Tier != TierStreamed {
		t.Fatalf("tier %v", cd.Tier)
	}
	mhsa, fc := cd.Phases[0], cd.Phases[1]
	if spill := mhsa.L3Spill + fc.L3Spill; spill <= 0 {
		t.Errorf("streamed phases spill %d activation bytes, want some", spill)
	}
	// The MHSA/FC weight shares must partition the block's weights,
	// each phase loading exactly the weights its kernels read.
	mhsaW := phaseWeightBytes(mhsa.Ops)
	fcW := phaseWeightBytes(fc.Ops)
	if mhsaW+fcW != cd.StreamBytesPerBlock {
		t.Errorf("phase weights %d+%d != block %d", mhsaW, fcW, cd.StreamBytesPerBlock)
	}
	if mhsa.L3Weights != mhsaW || fc.L3Weights != fcW {
		t.Errorf("phase weight loads %d+%d, want %d+%d", mhsa.L3Weights, fc.L3Weights, mhsaW, fcW)
	}
}

func TestResidentSingleBlockLoad(t *testing.T) {
	cfg := model.TinyLlama42M()
	d := mustDeploy(t, mustTP(t, cfg, 4), model.Autoregressive, 128)
	for _, cd := range d.Chips {
		if cd.Tier != TierResidentSingle {
			t.Fatalf("tier %v", cd.Tier)
		}
		// The block's weights load between blocks, before the first
		// phase; no phase streams.
		if load := cd.Phases[0].L3Weights; load != cd.StreamBytesPerBlock {
			t.Errorf("block load %d != stream %d", load, cd.StreamBytesPerBlock)
		}
		for k, ph := range cd.Phases {
			if (k > 0 && ph.L3Weights != 0) || ph.L3Spill != 0 || ph.Stream != nil {
				t.Error("resident-single should not stream inside phases")
			}
		}
	}
}

func TestContextGrowthDegradesTier(t *testing.T) {
	// At 8 chips, TinyLlama double-buffers at context 128 but the KV
	// cache at context 4096 no longer leaves room for two weight
	// buffers.
	cfg := model.TinyLlama42M()
	short := mustDeploy(t, mustTP(t, cfg, 8), model.Autoregressive, 128)
	long := mustDeploy(t, mustTP(t, cfg, 8), model.Autoregressive, 4096)
	if short.WorstTier() != TierDoubleBuffered {
		t.Fatalf("short context tier %v", short.WorstTier())
	}
	if long.WorstTier() >= TierDoubleBuffered {
		t.Fatalf("long context kept tier %v; KV growth should degrade it", long.WorstTier())
	}
}
