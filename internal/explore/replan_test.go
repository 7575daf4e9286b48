package explore

import (
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// Evaluating the tuned plan as deployed reproduces the autotuner's
// verified session cycles: the phase-restricted spelling the search
// prices and the merged-plan spelling a fleet serves are the same
// simulation.
func TestEvalSessionPlanMatchesAutotune(t *testing.T) {
	sys := core.DefaultSystem(8)
	cfg := model.TinyLlama42M()
	tuned, err := AutotuneSession(sys, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := evalSessionPlan(new(int), sys, cfg, tuned.Plan, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Cycles != tuned.Cycles {
		t.Fatalf("as-deployed session cycles %g != autotuned %g", cost.Cycles, tuned.Cycles)
	}
	if cost.Joules <= 0 || cost.Seconds <= 0 {
		t.Fatalf("session cost %+v should be positive", cost)
	}
}

// A plan routing over an unwired edge is rejected at validation, not
// silently priced — the degraded-wiring check a stale plan must pass.
func TestEvalSessionPlanRejectsUnwiredPlan(t *testing.T) {
	edges := map[hw.Edge]hw.LinkClass{}
	for c := 0; c < 7; c++ {
		edges[hw.Edge{From: c, To: c + 1}] = hw.MIPI()
		edges[hw.Edge{From: c + 1, To: c}] = hw.MIPI()
	}
	chain, err := hw.TableNetwork(edges, 8)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.DefaultSystem(8)
	sys.HW.Network = chain
	var plan collective.Plan
	for _, cl := range collective.ActiveClasses(sys.Strategy, model.Prompt) {
		plan = plan.With(cl, hw.TopoFullyConnected)
	}
	for _, cl := range collective.ActiveClasses(sys.Strategy, model.Autoregressive) {
		plan = plan.With(cl, hw.TopoFullyConnected)
	}
	if _, err := evalSessionPlan(new(int), sys, model.TinyLlama42M(), plan, SessionOptions{}); err == nil {
		t.Fatal("a fully-connected plan priced on a chain-only wiring")
	}
}

func TestReplanSessionMarginAtLeastOne(t *testing.T) {
	sys := core.DefaultSystem(8)
	cfg := model.TinyLlama42M()
	pristine, err := AutotuneSession(sys, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade by hand: a 10x-slower network overall (still uniform, so
	// every topology stays feasible and the comparison is honest).
	degraded := sys
	degraded.HW.Network = hw.UniformNetwork(hw.MIPI().Slower(10))
	res, err := ReplanSession(degraded, cfg, pristine.Plan, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Static == nil {
		t.Fatalf("stale plan should stay feasible on a uniform slowdown: %s", res.StaticErr)
	}
	if res.AdoptedCycles > res.Static.Cycles {
		t.Fatalf("adopted plan %g cycles worse than static %g", res.AdoptedCycles, res.Static.Cycles)
	}
	if res.MarginCycles < 1 {
		t.Fatalf("resilience margin %g < 1", res.MarginCycles)
	}
	if res.ReplanPays != (res.AdoptedCycles < res.Static.Cycles) {
		t.Fatalf("ReplanPays=%v inconsistent with adopted %g vs static %g",
			res.ReplanPays, res.AdoptedCycles, res.Static.Cycles)
	}
	if res.Tuned == nil || res.Tuned.Cycles <= 0 {
		t.Fatal("missing tuned result")
	}
}
