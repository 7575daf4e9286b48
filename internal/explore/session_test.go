package explore

import (
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// The pruned session autotuner must return the identical winner —
// plan, exact cycles, and margin — as exhaustive enumeration of the
// joint grid at the pinned 8-chip point, for at least 5x fewer exact
// simulations (measured, not estimated: both counts are evalpool
// cache-miss deltas over a cold cache).
func TestAutotuneSessionMatchesExhaustive8(t *testing.T) {
	base := core.DefaultSystem(8)
	cfg := model.TinyLlama42M()

	evalpool.ResetCache()
	pruned, err := AutotuneSession(base, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evalpool.ResetCache()
	exact, err := AutotuneSession(base, cfg, SessionOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}

	if pruned.Plan != exact.Plan {
		t.Errorf("pruned winner %s != exhaustive winner %s", pruned.Plan, exact.Plan)
	}
	if pruned.Cycles != exact.Cycles {
		t.Errorf("pruned cycles %g != exhaustive %g", pruned.Cycles, exact.Cycles)
	}
	if pruned.Margin != exact.Margin {
		t.Errorf("pruned margin %g != exhaustive %g", pruned.Margin, exact.Margin)
	}
	if exact.ExactSims < 5*pruned.ExactSims {
		t.Errorf("pruning saved too little: %d exact sims vs %d exhaustive (want >= 5x fewer)",
			pruned.ExactSims, exact.ExactSims)
	}
	if exact.ExactSims != exact.GridSims {
		t.Errorf("exhaustive ran %d sims over a %d-sim grid", exact.ExactSims, exact.GridSims)
	}
	// PR 4's 8-chip finding holds on the joint grid: the ring wins both
	// phases, so the best joint plan IS the uniform ring and the margin
	// is exactly 1.
	if pruned.BestUniform != hw.TopoRing || pruned.Margin != 1 {
		t.Errorf("8-chip session: best uniform %s margin %g, want uniform ring at margin 1",
			pruned.BestUniform, pruned.Margin)
	}
	for _, cc := range pruned.PerClass {
		if cc.Topology != hw.TopoRing {
			t.Errorf("8-chip session bound %s to %s, want ring", cc.Class, cc.Topology)
		}
	}
}

// At the paper's 64-chip scaled point the joint autotuner must
// rediscover the PR 4 session finding — prefill on the ring, decode on
// the tree, a >1.25x win over the best uniform session — from a
// pruned search at least 5x cheaper than the grid.
func TestAutotuneSessionPinned64(t *testing.T) {
	evalpool.ResetCache()
	res, err := AutotuneSession(core.DefaultSystem(64), model.TinyLlamaScaled64(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[collective.SyncClass]hw.Topology{
		collective.PrefillMHSA: hw.TopoRing,
		collective.PrefillFFN:  hw.TopoRing,
		collective.DecodeMHSA:  hw.TopoTree,
		collective.DecodeFFN:   hw.TopoTree,
	}
	if len(res.PerClass) != len(want) {
		t.Fatalf("session tuned %d classes, want %d", len(res.PerClass), len(want))
	}
	for _, cc := range res.PerClass {
		if cc.Topology != want[cc.Class] {
			t.Errorf("%s tuned to %s, want %s", cc.Class, cc.Topology, want[cc.Class])
		}
	}
	if res.BestUniform != hw.TopoRing {
		t.Errorf("best uniform session = %s, want ring", res.BestUniform)
	}
	if res.Margin < 1.25 {
		t.Errorf("session margin %g, want > 1.25 (the hybrid's PR 4 win)", res.Margin)
	}
	if res.Candidates != 256 || res.GridSims != 512 {
		t.Errorf("joint grid = %d candidates / %d sims, want 256 / 512", res.Candidates, res.GridSims)
	}
	if 5*res.ExactSims > res.GridSims {
		t.Errorf("pruned search ran %d exact sims over a %d-sim grid (want >= 5x fewer)",
			res.ExactSims, res.GridSims)
	}
}

// The 64-chip pruned winner must equal exhaustive enumeration of the
// full 512-simulation joint grid. ~6s of simulations; skipped under
// -short.
func TestAutotuneSessionMatchesExhaustive64(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 64-chip joint grid is 512 simulations")
	}
	base := core.DefaultSystem(64)
	cfg := model.TinyLlamaScaled64()
	evalpool.ResetCache()
	pruned, err := AutotuneSession(base, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evalpool.ResetCache()
	exact, err := AutotuneSession(base, cfg, SessionOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Plan != exact.Plan || pruned.Cycles != exact.Cycles || pruned.Margin != exact.Margin {
		t.Errorf("pruned (%s, %g cycles, %gx) != exhaustive (%s, %g cycles, %gx)",
			pruned.Plan, pruned.Cycles, pruned.Margin, exact.Plan, exact.Cycles, exact.Margin)
	}
	if exact.ExactSims < 5*pruned.ExactSims {
		t.Errorf("%d pruned vs %d exhaustive sims, want >= 5x fewer", pruned.ExactSims, exact.ExactSims)
	}
}

// The predictor has to be good enough to steer: its ranking of the
// verified candidates must largely agree with exact cycles, it must
// rank the true winner first at the pinned 64-chip point (where every
// top candidate deviates in at most one class per phase, making the
// additive model exact), and its deltas must carry one entry per
// (phase, class, topology), zero at the reference.
func TestSessionPredictorRankAccuracy(t *testing.T) {
	evalpool.ResetCache()
	res, err := AutotuneSession(core.DefaultSystem(64), model.TinyLlamaScaled64(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RankAccuracy < 0.9 {
		t.Errorf("64-chip rank accuracy %g, want >= 0.9", res.RankAccuracy)
	}
	if len(res.Verified) == 0 || res.Verified[0].Plan != res.Plan {
		t.Errorf("predictor ranked %v first, want the exact winner %s", res.Verified, res.Plan)
	}
	if res.PredictedCycles != res.Cycles {
		t.Errorf("winner predicted at %g but measured %g: the single-deviation prediction should be exact here",
			res.PredictedCycles, res.Cycles)
	}
	sp, err := sessionSpace(core.DefaultSystem(64), model.TinyLlamaScaled64(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sp.reference(hw.TopoTree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fitSurrogate(new(int), core.DefaultSystem(64), sp, ref)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for mi, m := range sp.modes {
		for k, c := range m.classes {
			entries += len(s.delta[mi][k])
			if d := s.delta[mi][k][ref]; d != (SessionCost{}) {
				t.Errorf("reference entry %s/%s carries delta %+v, want 0", c, sp.topos[ref], d)
			}
		}
	}
	// 2 phases x 2 classes x 4 topologies.
	if entries != 16 {
		t.Errorf("surrogate has %d deltas, want 16", entries)
	}

	res8, err := AutotuneSession(core.DefaultSystem(8), model.TinyLlama42M(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res8.RankAccuracy < 0.7 {
		t.Errorf("8-chip rank accuracy %g, want >= 0.7", res8.RankAccuracy)
	}
}

// Repeated session autotunes must never re-lower a schedule: after one
// call interned every (network, chips, topology) triple the search
// touches, a second identical call — with the report cache dropped, so
// every simulation genuinely re-runs — performs zero new lowerings.
func TestAutotuneSessionZeroNewLowerings(t *testing.T) {
	base := core.DefaultSystem(8)
	cfg := model.TinyLlama42M()
	first, err := AutotuneSession(base, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := interconnect.Lowerings()
	evalpool.ResetCache()
	second, err := AutotuneSession(base, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := interconnect.Lowerings() - before; got != 0 {
		t.Errorf("repeat autotune re-lowered %d schedules, want 0 (intern cache must absorb them)", got)
	}
	if first.Plan != second.Plan || first.Cycles != second.Cycles {
		t.Errorf("repeat autotune diverged: %s/%g vs %s/%g",
			first.Plan, first.Cycles, second.Plan, second.Cycles)
	}
	if second.ExactSims == 0 {
		t.Error("report cache was not dropped: the repeat ran no simulations and proves nothing")
	}
}

// The replicated baseline's exchanges execute in both phases, so its
// joint grid is topologies^2 and one binding serves prefill and
// decode.
func TestAutotuneSessionReplicated(t *testing.T) {
	base := core.DefaultSystem(8)
	base.Strategy = partition.Replicated
	res, err := AutotuneSession(base, model.TinyLlama42M(), SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 16 {
		t.Errorf("replicated joint grid = %d candidates, want 16", res.Candidates)
	}
	if len(res.PerClass) != 2 ||
		res.PerClass[0].Class != collective.KVExchange ||
		res.PerClass[1].Class != collective.OutputExchange {
		t.Fatalf("replicated session classes = %v, want kv-exchange and output-exchange", res.PerClass)
	}
	if res.Margin < 1 {
		t.Errorf("margin %g < 1: the winner lost to a uniform plan it had in its grid", res.Margin)
	}
}

// The pipeline strategy has no collective synchronizations to plan.
func TestAutotuneSessionPipelineRejected(t *testing.T) {
	base := core.DefaultSystem(8)
	base.Strategy = partition.Pipeline
	if _, err := AutotuneSession(base, model.TinyLlama42M(), SessionOptions{}); err == nil {
		t.Fatal("pipeline session autotune accepted")
	}
}

// AutotuneSession tunes for the base system's own network, so a caller
// that loops over network profiles (as experiments.SessionAutotune
// does) gets one plan per profile: the uniform result must match the
// default system's, and the clustered result must be tuned for its own
// slower backhaul.
func TestAutotuneSessionNetworks(t *testing.T) {
	cfg := model.TinyLlama42M()
	nets := []hw.Network{
		hw.UniformNetwork(hw.MIPI()),
		hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4),
	}
	var results []*SessionResult
	for _, net := range nets {
		sys := core.DefaultSystem(8)
		sys.HW.Network = net
		res, err := AutotuneSession(sys, cfg, SessionOptions{})
		if err != nil {
			t.Fatalf("network %s: %v", net, err)
		}
		if res.Margin < 1 {
			t.Errorf("network %s margin %g < 1", net, res.Margin)
		}
		results = append(results, res)
	}
	direct, err := AutotuneSession(core.DefaultSystem(8), cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Plan != direct.Plan || results[0].Cycles != direct.Cycles {
		t.Errorf("uniform-network result %s/%g != direct %s/%g",
			results[0].Plan, results[0].Cycles, direct.Plan, direct.Cycles)
	}
	if results[1].Cycles <= results[0].Cycles {
		t.Errorf("clustered backhaul session %g cycles is no slower than the uniform network's %g",
			results[1].Cycles, results[0].Cycles)
	}
}
