package explore

import (
	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
)

// surrogate is the per-class additive cost model behind every
// surrogate-first search in this package, extracted from
// AutotuneSession (where PR 5 proved the structure: 20 probe
// simulations steer a 512-simulation grid to the provably identical
// winner). Fitting runs one probe simulation per (phase, class,
// topology) — the four uniform sessions plus every single-deviation
// binding — and the fitted model predicts any joint plan's session
// cycles and energy by composing the measured deltas additively, in
// microseconds instead of simulations. Predictions only ever decide
// what to verify: every consumer (AutotuneSession, PlanFrontier)
// re-evaluates its predicted winners exactly and decides on exact
// numbers.
//
// The single-deviation probes make the prediction exact whenever at
// most one class per phase leaves the reference topology; the residual
// is the within-phase interaction of simultaneously rebound classes,
// which the verification pass absorbs. All probe points flow through
// the shared evalpool tiers, so a store-backed process fits the
// surrogate without simulating at all.
type surrogate struct {
	planSpace

	// base[m] is phase m's all-reference cost and delta[m][k][t] the
	// measured change from binding the phase's k-th class to topology t
	// with every other class held at the reference (zero for the
	// reference itself). Each entry is one objective vector: the
	// latency and energy models read the same probe reports the cycle
	// model does, so the second objective is free.
	base  []SessionCost
	delta [][][]SessionCost
}

// fitSurrogate runs the probe simulations — per phase, the uniform
// plans (the margin baselines need them anyway) and one
// single-deviation probe per (class, non-reference topology) — as one
// deduplicated exact evaluation billed to *fills, and assembles the
// model.
func fitSurrogate(fills *int, base core.System, sp planSpace, ref int) (*surrogate, error) {
	type probe struct{ mode, class, topo int } // class -1: the phase's uniform plan
	var probes []probe
	for mi, m := range sp.modes {
		for t := range sp.topos {
			probes = append(probes, probe{mi, -1, t})
		}
		for k := range m.classes {
			for t := range sp.topos {
				if t != ref {
					probes = append(probes, probe{mi, k, t})
				}
			}
		}
	}
	exact, err := evalExact(fills, "surrogate probes", len(probes), func(j int, buf []evalpool.Point) []evalpool.Point {
		pr := probes[j]
		m := sp.modes[pr.mode]
		var p collective.Plan
		for k, c := range m.classes {
			t := ref
			if pr.class < 0 || pr.class == k {
				t = pr.topo
			}
			p = p.With(c, sp.topos[t])
		}
		return append(buf, phasePoint(base, m, p, false))
	})
	if err != nil {
		return nil, err
	}
	s := &surrogate{
		planSpace: sp,
		base:      make([]SessionCost, len(sp.modes)),
		delta:     make([][][]SessionCost, len(sp.modes)),
	}
	for j, pr := range probes {
		if pr.class >= 0 || pr.topo != ref {
			continue
		}
		m := sp.modes[pr.mode]
		s.base[pr.mode] = exact[j].SessionCost
		s.delta[pr.mode] = make([][]SessionCost, len(m.classes))
		for k := range m.classes {
			s.delta[pr.mode][k] = make([]SessionCost, len(sp.topos))
		}
	}
	for j, pr := range probes {
		if pr.class < 0 {
			continue
		}
		s.delta[pr.mode][pr.class][pr.topo] = exact[j].minus(s.base[pr.mode])
	}
	return s, nil
}

// predict composes a candidate's session cost from the fitted deltas:
// per phase the baseline plus its classes' deltas in class order, then
// the phases summed. Ranks and RankAccuracy depend on predictions to
// the last bit, so that summation order is part of the model.
func (s *surrogate) predict(digits []int) SessionCost {
	var total SessionCost
	for mi, m := range s.modes {
		phase := s.base[mi]
		for k, a := range m.axis {
			phase = phase.plus(s.delta[mi][k][digits[a]])
		}
		total = total.plus(phase)
	}
	return total
}

// VerifiedPlan is one exactly-evaluated joint plan next to what the
// surrogate predicted for it.
type VerifiedPlan struct {
	Plan             collective.Plan
	PredictedCycles  float64
	PredictedSeconds float64
	PredictedJoules  float64
	// Cycles / Seconds / Joules are the exact whole-session costs
	// (prompt prefill plus one decode step).
	Cycles  float64
	Seconds float64
	Joules  float64
	// PrefillReport / DecodeReport are the two exact phase
	// evaluations.
	PrefillReport *core.Report
	DecodeReport  *core.Report
}

// verifiedPlan pairs a plan's exact session evaluation with its
// prediction.
func verifiedPlan(p collective.Plan, pred SessionCost, e exactCost) VerifiedPlan {
	return VerifiedPlan{
		Plan:             p,
		PredictedCycles:  pred.Cycles,
		PredictedSeconds: pred.Seconds,
		PredictedJoules:  pred.Joules,
		Cycles:           e.Cycles,
		Seconds:          e.Seconds,
		Joules:           e.Joules,
		PrefillReport:    e.reports[0],
		DecodeReport:     e.reports[len(e.reports)-1],
	}
}
