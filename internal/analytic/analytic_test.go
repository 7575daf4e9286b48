package analytic

import (
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
)

// crossValidate compares the closed form against the event simulator.
func crossValidate(t *testing.T, cfg model.Config, n int, mode model.Mode, s int, tol float64) {
	t.Helper()
	p, err := partition.NewTensorParallel(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hw.Siracusa(), mode, s, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := perfsim.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	ratio := est / sim.TotalCycles
	if ratio < 1-tol || ratio > 1+tol {
		t.Errorf("%s n=%d %v S=%d: analytic %.3e vs sim %.3e (ratio %.3f, tol %.0f%%)",
			cfg.Name, n, mode, s, est, sim.TotalCycles, ratio, tol*100)
	}
}

// The two independent derivations of the same model must agree
// closely across the paper's entire evaluation grid.
func TestCrossValidationAgainstSimulator(t *testing.T) {
	ll := model.TinyLlama42M()
	for _, n := range []int{1, 2, 4, 8} {
		crossValidate(t, ll, n, model.Autoregressive, 128, 0.15)
		crossValidate(t, ll, n, model.Prompt, 16, 0.15)
	}
	mb := model.MobileBERT512()
	for _, n := range []int{1, 2, 4} {
		crossValidate(t, mb, n, model.Prompt, 268, 0.15)
	}
	sc := model.TinyLlamaScaled64()
	for _, n := range []int{16, 32, 64} {
		crossValidate(t, sc, n, model.Autoregressive, 128, 0.25)
	}
}

func TestEstimateRejectsBaselines(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewReplicated(cfg, 4)
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, 16, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(d); err == nil {
		t.Fatal("replicated plan accepted")
	}
}

func TestEstimateMonotoneInBlocks(t *testing.T) {
	short := model.TinyLlama42M()
	long := short
	long.L = 16
	p1, _ := partition.NewTensorParallel(short, 8)
	p2, _ := partition.NewTensorParallel(long, 8)
	d1, _ := deploy.NewBatched(p1, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	d2, _ := deploy.NewBatched(p2, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	e1, err := Estimate(d1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Estimate(d2)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("16-block estimate %g not above 8-block %g", e2, e1)
	}
}

func TestEstimatePrefetchExposure(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := partition.NewTensorParallel(cfg, 8)
	hidden, _ := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{})
	exposed, _ := deploy.NewBatched(p, hw.Siracusa(), model.Autoregressive, 128, 1, deploy.Options{PrefetchExposed: true})
	eh, err := Estimate(hidden)
	if err != nil {
		t.Fatal(err)
	}
	ee, err := Estimate(exposed)
	if err != nil {
		t.Fatal(err)
	}
	if ee <= eh {
		t.Fatalf("exposed estimate %g not above hidden %g", ee, eh)
	}
}
