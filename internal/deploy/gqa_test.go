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
		singleMACs := phaseCost(single.Chips[0].MHSA).MACs + phaseCost(single.Chips[0].FC).MACs
		d := mustDeploy(t, mustTP(t, cfg, 3), mode, s)
		var total int64
		for c := range d.Chips {
			total += phaseCost(d.Chips[c].MHSA).MACs + phaseCost(d.Chips[c].FC).MACs
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
		weightBytes += phaseCost(d.Chips[c].MHSA).WeightBytes + phaseCost(d.Chips[c].FC).WeightBytes
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
	if phaseCost(dg.Chips[0].MHSA).TotalL2L1Bytes() >= phaseCost(dm.Chips[0].MHSA).TotalL2L1Bytes() {
		t.Errorf("GQA MHSA bytes %d not below MHA %d",
			phaseCost(dg.Chips[0].MHSA).TotalL2L1Bytes(), phaseCost(dm.Chips[0].MHSA).TotalL2L1Bytes())
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
	if without.Chips[0].ExposedMHSABytes >= with.Chips[0].ExposedMHSABytes {
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
	exposed := cd.ExposedMHSABytes + cd.ExposedFCBytes
	if exposed <= cd.StreamBytesPerBlock {
		t.Errorf("exposure %d should exceed weights %d (spill missing)", exposed, cd.StreamBytesPerBlock)
	}
	// The MHSA/FC weight shares must partition the block's weights.
	mhsaW := phaseWeightBytes(cd.MHSA)
	fcW := phaseWeightBytes(cd.FC)
	if mhsaW+fcW != cd.StreamBytesPerBlock {
		t.Errorf("phase weights %d+%d != block %d", mhsaW, fcW, cd.StreamBytesPerBlock)
	}
}

func TestResidentSingleBlockLoad(t *testing.T) {
	cfg := model.TinyLlama42M()
	d := mustDeploy(t, mustTP(t, cfg, 4), model.Autoregressive, 128)
	for _, cd := range d.Chips {
		if cd.Tier != TierResidentSingle {
			t.Fatalf("tier %v", cd.Tier)
		}
		if cd.BlockLoadBytes != cd.StreamBytesPerBlock {
			t.Errorf("block load %d != stream %d", cd.BlockLoadBytes, cd.StreamBytesPerBlock)
		}
		if cd.ExposedMHSABytes != 0 || cd.ExposedFCBytes != 0 {
			t.Error("resident-single should not stream inside phases")
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
