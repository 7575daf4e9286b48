package mcudist

import "testing"

// Facade-level tests: the public API exercised exactly as README and
// the examples present it.

func TestFacadeRun(t *testing.T) {
	rep, err := Run(DefaultSystem(8), Workload{Model: TinyLlama42M(), Mode: Autoregressive})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles <= 0 {
		t.Fatal("no runtime")
	}
}

func TestFacadeSweepAndSpeedup(t *testing.T) {
	reports, err := Sweep(DefaultSystem(1), Workload{Model: TinyLlama42M(), Mode: Autoregressive}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s := Speedup(reports[0], reports[1]); s <= 8 {
		t.Fatalf("speedup %g not super-linear", s)
	}
}

func TestFacadeModels(t *testing.T) {
	for _, cfg := range []Config{TinyLlama42M(), TinyLlamaScaled64(), MobileBERT512()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if PaperSeqLen(TinyLlama42M(), Prompt) != 16 {
		t.Error("paper prompt length wrong")
	}
}

func TestFacadeNumericPath(t *testing.T) {
	cfg := TinyLlama42M()
	cfg.L = 1
	cfg.E, cfg.P, cfg.F, cfg.H = 32, 32, 64, 4
	w := NewWeights(cfg, 1)
	x := RandomInput(cfg, 3, 2)
	ref := Forward(w, x, nil)

	plan, err := NewPlan(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(ref, exec.Forward(x)); d > 1e-4 {
		t.Fatalf("distributed differs by %g", d)
	}
}

func TestFacadeKVCacheGeneration(t *testing.T) {
	cfg := TinyLlama42M()
	cfg.L = 1
	cfg.E, cfg.P, cfg.F, cfg.H = 32, 32, 64, 4
	w := NewWeights(cfg, 3)
	cache := NewKVCache(cfg)
	Forward(w, RandomInput(cfg, 4, 4), cache)
	out := ForwardStep(w, RandomInput(cfg, 1, 5), cache)
	if out.Rows != 1 || out.Cols != cfg.E {
		t.Fatal("step output shape wrong")
	}
}

func TestFacadeStrategies(t *testing.T) {
	for _, strat := range []Strategy{TensorParallel, Replicated, Pipeline} {
		sys := DefaultSystem(4)
		sys.Strategy = strat
		if _, err := Run(sys, Workload{Model: TinyLlama42M(), Mode: Prompt}); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

func TestFacadeGeneration(t *testing.T) {
	g, err := RunGeneration(DefaultSystem(8), TinyLlama42M(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.TimeToFirstTokenSeconds <= 0 || g.TokensPerSecond <= 0 {
		t.Fatal("generation metrics missing")
	}
}

func TestFacadeExplore(t *testing.T) {
	wl := Workload{Model: TinyLlama42M(), Mode: Autoregressive}
	pt, err := MinChipsOffChipFree(DefaultSystem(1), wl, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Report.Tier.OffChipFree() {
		t.Fatal("explorer returned a non-off-chip-free point")
	}
	counts := LegalChipCounts(TinyLlama42M(), 100)
	if len(counts) != 8 {
		t.Fatalf("legal counts = %v", counts)
	}
	points, err := Frontier(DefaultSystem(1), wl, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatal("frontier incomplete")
	}
}

func TestFacadeGQAPreset(t *testing.T) {
	cfg := SmolLM135M()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(DefaultSystem(3), Workload{Model: cfg, Mode: Autoregressive}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(DefaultSystem(4), Workload{Model: cfg, Mode: Autoregressive}); err == nil {
		t.Fatal("4 chips on 3 KV heads accepted")
	}
}
