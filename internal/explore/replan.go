package explore

import (
	"fmt"
	"math"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/model"
)

// This file is the degraded-network autotune entry point: given a
// system whose wiring or hardware has been perturbed (the resilience
// tier's Perturb), ReplanSession prices the stale pre-tuned plan on
// the degraded system, re-runs the session autotuner over the degraded
// network, and reports the resilience margin — how much a static fleet
// loses by serving the stale plan instead of re-planning.

// SessionCost is one exactly-evaluated session (one prompt prefill
// plus one decode step) of a fixed joint plan, as deployed.
type SessionCost struct {
	Cycles  float64
	Seconds float64
	Joules  float64
}

// evalSessionPlan evaluates a fixed joint plan on the system exactly,
// as deployed: the full plan rides in both phases' cache keys, the
// spelling a serving fleet actually runs. A plan that routes an active
// class over an edge the network does not wire fails here — the
// degraded-wiring validation a stale plan must pass before it can be
// priced at all. The evaluation is billed to *fills.
func evalSessionPlan(fills *int, sys core.System, cfg model.Config, plan collective.Plan, opts SessionOptions) (*SessionCost, error) {
	sp, err := sessionSpace(sys, cfg, opts)
	if err != nil {
		return nil, err
	}
	exact, err := evalExact(fills, "session plan eval", 1, func(_ int, buf []evalpool.Point) []evalpool.Point {
		return sp.points(buf, sys, plan, true)
	})
	if err != nil {
		return nil, err
	}
	return &exact[0].SessionCost, nil
}

// ReplanResult compares serving a stale plan on a degraded system
// against re-planning for it.
type ReplanResult struct {
	// StalePlan is the pre-tuned plan under test; Static its exact
	// session cost on the degraded system. StaticErr is set (and
	// Static nil) when the stale plan does not even validate on the
	// degraded wiring — re-planning is then mandatory, not marginal.
	StalePlan collective.Plan
	Static    *SessionCost
	StaticErr string
	// Tuned is the full session autotune over the degraded system:
	// its Plan/Cycles are the re-planned candidate and its
	// BestUniform/UniformCycles the uniform baselines.
	Tuned *SessionResult
	// AdoptedPlan is what a re-planning fleet would serve: the tuned
	// plan when it beats the stale one, otherwise the stale plan
	// (ReplanPays reports which). AdoptedCycles/AdoptedJoules price
	// it.
	AdoptedPlan   collective.Plan
	AdoptedCycles float64
	AdoptedJoules float64
	ReplanPays    bool
	// MarginCycles is the resilience margin: the stale plan's session
	// cycles over the adopted plan's — how much latency a static fleet
	// pays for not re-planning (1 when the stale plan is still
	// optimal, +Inf when it is infeasible on the degraded wiring).
	// MarginJoules is the same ratio in energy.
	MarginCycles float64
	MarginJoules float64
	// ExactSims is the exact-evaluation bill of the whole comparison:
	// the points the static pricing filled plus the re-tune's own
	// ExactSims.
	ExactSims int
}

// ReplanSession prices the stale plan against a fresh AutotuneSession
// on the degraded system. The adopted plan is always the better of
// the two on exact cycles, so the margin is >= 1 by construction: the
// autotuner can only add options, never force a worse plan.
func ReplanSession(degraded core.System, cfg model.Config, stale collective.Plan, opts SessionOptions) (*ReplanResult, error) {
	var fills int
	res := &ReplanResult{StalePlan: stale}
	static, err := evalSessionPlan(&fills, degraded, cfg, stale, opts)
	if err != nil {
		res.StaticErr = err.Error()
	} else {
		res.Static = static
	}
	tuned, err := AutotuneSession(degraded, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("explore: replan autotune: %w", err)
	}
	res.Tuned = tuned
	tunedJoules := tuned.PrefillReport.Energy.Total() + tuned.DecodeReport.Energy.Total()
	if res.Static != nil && res.Static.Cycles <= tuned.Cycles {
		res.AdoptedPlan = stale
		res.AdoptedCycles = res.Static.Cycles
		res.AdoptedJoules = res.Static.Joules
	} else {
		res.AdoptedPlan = tuned.Plan
		res.AdoptedCycles = tuned.Cycles
		res.AdoptedJoules = tunedJoules
		res.ReplanPays = true
	}
	if res.Static != nil {
		res.MarginCycles = res.Static.Cycles / res.AdoptedCycles
		res.MarginJoules = res.Static.Joules / res.AdoptedJoules
	} else {
		res.MarginCycles = math.Inf(1)
		res.MarginJoules = math.Inf(1)
	}
	res.ExactSims = fills + tuned.ExactSims
	return res, nil
}
