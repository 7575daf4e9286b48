package explore

import (
	"math"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// frontSet collects the Pareto-marked points of a plan frontier as
// exact (seconds, joules) objective vectors, and a plan-keyed lookup
// of every point.
func frontSet(res *PlanFrontierResult) (map[[2]float64]bool, map[string]PlanPoint) {
	front := map[[2]float64]bool{}
	byPlan := map[string]PlanPoint{}
	for _, p := range res.Points {
		byPlan[p.Plan.String()] = p
		if p.Pareto {
			front[[2]float64{p.Seconds, p.Joules}] = true
		}
	}
	return front, byPlan
}

// comparePlanFronts holds a surrogate-first scan to exhaustive
// enumeration: the Pareto fronts must agree as exact objective sets,
// every surrogate front point must be Pareto-optimal in the
// exhaustive scan with bit-identical objectives, and the surrogate
// must have measured at least 5x fewer exact simulations.
func comparePlanFronts(t *testing.T, surrogate, exact *PlanFrontierResult) {
	t.Helper()
	sFront, _ := frontSet(surrogate)
	eFront, eByPlan := frontSet(exact)
	if len(sFront) != len(eFront) {
		t.Errorf("surrogate front has %d objective vectors, exhaustive %d", len(sFront), len(eFront))
	}
	for v := range eFront {
		if !sFront[v] {
			t.Errorf("exhaustive front point (%.6g s, %.6g J) missing from surrogate front", v[0], v[1])
		}
	}
	for _, p := range surrogate.Points {
		if !p.Pareto {
			continue
		}
		ep, ok := eByPlan[p.Plan.String()]
		if !ok {
			t.Errorf("surrogate front plan %s not in the exhaustive grid", p.Plan)
			continue
		}
		if !ep.Pareto {
			t.Errorf("surrogate front plan %s is dominated in the exhaustive scan", p.Plan)
		}
		if ep.Seconds != p.Seconds || ep.Joules != p.Joules {
			t.Errorf("plan %s: surrogate measured (%g s, %g J), exhaustive (%g s, %g J) — exact values must be spelling-independent",
				p.Plan, p.Seconds, p.Joules, ep.Seconds, ep.Joules)
		}
	}
	if exact.ExactSims < 5*surrogate.ExactSims {
		t.Errorf("surrogate ran %d exact sims vs %d exhaustive, want >= 5x fewer",
			surrogate.ExactSims, exact.ExactSims)
	}
	if exact.ExactSims != exact.GridSims {
		t.Errorf("exhaustive ran %d sims over a %d-sim grid", exact.ExactSims, exact.GridSims)
	}
}

// The surrogate-first plan frontier must reproduce the exhaustive
// Pareto front exactly at the pinned 8-chip point — identical
// objective vectors, every front plan verified Pareto-optimal — from
// at least 5x fewer measured simulations (both counts are evalpool
// cache-miss deltas over a cold cache).
func TestPlanFrontierMatchesExhaustive8(t *testing.T) {
	base := core.DefaultSystem(1)
	cfg := model.TinyLlama42M()
	evalpool.ResetCache()
	surrogate, err := PlanFrontier(base, cfg, []int{8}, PlanFrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evalpool.ResetCache()
	exact, err := PlanFrontier(base, cfg, []int{8}, PlanFrontierOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Candidates != 256 || exact.GridSims != 512 {
		t.Errorf("8-chip plan grid = %d candidates / %d sims, want 256 / 512",
			exact.Candidates, exact.GridSims)
	}
	comparePlanFronts(t, surrogate, exact)
	// The exhaustive scan predicts nothing: every predicted objective
	// is the exact one.
	for _, p := range exact.Points {
		if p.PredictedCycles != p.Cycles || p.PredictedSeconds != p.Seconds || p.PredictedJoules != p.Joules {
			t.Fatalf("exhaustive point %s predicted (%g, %g s, %g J), exact (%g, %g s, %g J)",
				p.Plan, p.PredictedCycles, p.PredictedSeconds, p.PredictedJoules, p.Cycles, p.Seconds, p.Joules)
		}
	}
}

// The same equivalence at the paper's 64-chip scaled point — the
// operating point where the hybrid prefill-ring/decode-tree plan wins,
// so the front is not a uniform plan's. ~6s of simulations; skipped
// under -short.
func TestPlanFrontierMatchesExhaustive64(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 64-chip joint plan grid is 512 simulations")
	}
	base := core.DefaultSystem(1)
	cfg := model.TinyLlamaScaled64()
	evalpool.ResetCache()
	surrogate, err := PlanFrontier(base, cfg, []int{64}, PlanFrontierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evalpool.ResetCache()
	exact, err := PlanFrontier(base, cfg, []int{64}, PlanFrontierOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	comparePlanFronts(t, surrogate, exact)

	// The tuned session winner sits on the front: the frontier's best
	// latency point must match AutotuneSession's exact winner.
	res, err := AutotuneSession(core.DefaultSystem(64), cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bestSecs := math.Inf(1)
	var bestPlan string
	for _, p := range surrogate.Points {
		if p.Pareto && p.Seconds < bestSecs {
			bestSecs = p.Seconds
			bestPlan = p.Plan.String()
		}
	}
	if bestPlan != res.Plan.String() {
		t.Errorf("frontier's fastest point is %s, AutotuneSession's winner is %s", bestPlan, res.Plan)
	}
}

// PlanFrontier prices the base system's network, so a caller that
// wants several network profiles loops over them and marks the Pareto
// front across the union itself. With a slow backhaul crossed at both
// chip counts (cluster size 2), the degraded cells are strictly worse:
// every front point of the union must come from the uniform network.
func TestPlanFrontierNetworks(t *testing.T) {
	cfg := model.TinyLlama42M()
	nets := []hw.Network{
		hw.UniformNetwork(hw.MIPI()),
		hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 2),
	}
	var secs, jls []float64
	var from []hw.Network
	for _, net := range nets {
		base := core.DefaultSystem(1)
		base.HW.Network = net
		res, err := PlanFrontier(base, cfg, []int{4, 8}, PlanFrontierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Candidates != 2*256 {
			t.Errorf("network %s: 2-cell scan enumerates %d candidates, want %d", net, res.Candidates, 2*256)
		}
		chips := map[int]bool{}
		for _, p := range res.Points {
			chips[p.Chips] = true
			secs = append(secs, p.Seconds)
			jls = append(jls, p.Joules)
			from = append(from, net)
		}
		if len(chips) != 2 {
			t.Errorf("network %s: points span %d chip counts, want 2", net, len(chips))
		}
	}
	pareto := 0
	for i, on := range paretoMask(secs, jls) {
		if !on {
			continue
		}
		pareto++
		if from[i] != nets[0] {
			t.Errorf("front point %d (%g s, %g J) rides the degraded network", i, secs[i], jls[i])
		}
	}
	if pareto == 0 {
		t.Error("no Pareto-optimal point in the union")
	}
}
