package explore

import (
	"slices"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// Surrogate is the per-class additive cost model behind every
// surrogate-first search in this package, extracted from
// AutotuneSession (where PR 5 proved the structure: 20 probe
// simulations steer a 512-simulation grid to the provably identical
// winner). Fitting runs one probe simulation per (phase, class,
// topology) — the four uniform sessions plus every single-deviation
// binding — and the fitted model predicts any joint plan's session
// cycles and energy by composing the measured deltas additively, in
// microseconds instead of simulations. Predictions only ever decide
// what to verify: every consumer (AutotuneSession, PlanFrontier,
// PlanBudgetFit) re-evaluates its predicted winners exactly and
// decides on exact numbers.
//
// The single-deviation probes make the prediction exact whenever at
// most one class per phase leaves the reference topology; the residual
// is the within-phase interaction of simultaneously rebound classes,
// which the verification pass absorbs. All probe points flow through
// the shared evalpool tiers, so a store-backed process fits the
// surrogate without simulating at all.
type Surrogate struct {
	planSpace
	refIdx int

	// base[m] is phase m's all-reference cost and delta[m][k][t] the
	// measured change from binding the phase's k-th class to topology t
	// with every other class held at the reference (zero for the
	// reference itself). Each entry is one objective vector: the
	// latency and energy models read the same probe reports the cycle
	// model does, so the second objective is free.
	base  []SessionCost
	delta [][][]SessionCost

	costs []ClassCost
}

// FitSurrogate fits the additive session cost model for the base
// system's chip count and network: one whole-session probe per
// (phase, class, topology), cycles and energy both. The base system's
// run topology is the reference the deltas are measured against.
func FitSurrogate(base core.System, cfg model.Config, opts SessionOptions) (*Surrogate, error) {
	sp, err := sessionSpace(base, cfg, opts)
	if err != nil {
		return nil, err
	}
	ref, err := sp.reference(base.HW.Topology)
	if err != nil {
		return nil, err
	}
	return fitSurrogate(base, sp, ref)
}

// fitSurrogate runs the probe simulations — per phase, the uniform
// plans (the margin baselines need them anyway) and one
// single-deviation probe per (class, non-reference topology) — as one
// deduplicated exact evaluation, and assembles the model.
func fitSurrogate(base core.System, sp planSpace, ref int) (*Surrogate, error) {
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
	exact, err := evalExact("surrogate probes", len(probes), func(j int, buf []evalpool.Point) []evalpool.Point {
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
	s := &Surrogate{
		planSpace: sp,
		refIdx:    ref,
		base:      make([]SessionCost, len(sp.modes)),
		delta:     make([][][]SessionCost, len(sp.modes)),
	}
	// The cost vector lists every phase's reference entries first, then
	// the deviations in probe order.
	for j, pr := range probes {
		if pr.class >= 0 || pr.topo != ref {
			continue
		}
		m := sp.modes[pr.mode]
		s.base[pr.mode] = exact[j].SessionCost
		s.delta[pr.mode] = make([][]SessionCost, len(m.classes))
		for k, c := range m.classes {
			s.delta[pr.mode][k] = make([]SessionCost, len(sp.topos))
			s.costs = append(s.costs, ClassCost{
				Mode:      m.wl.Mode,
				Class:     c,
				Topology:  sp.topos[ref],
				C2CCycles: classC2C(exact[j].reports[0], c),
			})
		}
	}
	for j, pr := range probes {
		if pr.class < 0 {
			continue
		}
		m := sp.modes[pr.mode]
		c := m.classes[pr.class]
		d := exact[j].minus(s.base[pr.mode])
		s.delta[pr.mode][pr.class][pr.topo] = d
		s.costs = append(s.costs, ClassCost{
			Mode:        m.wl.Mode,
			Class:       c,
			Topology:    sp.topos[pr.topo],
			DeltaCycles: d.Cycles,
			C2CCycles:   classC2C(exact[j].reports[0], c),
		})
	}
	return s, nil
}

// classC2C is class c's link busy time in rep — the ByClass
// attribution the decomposition rests on.
func classC2C(rep *core.Report, c collective.SyncClass) float64 {
	for _, cs := range rep.ByClass {
		if cs.Class == c {
			return cs.C2CCycles
		}
	}
	return 0
}

// Classes returns the session's joint plan axis: the ordered union of
// both phases' active synchronization classes.
func (s *Surrogate) Classes() []collective.SyncClass {
	return append([]collective.SyncClass(nil), s.union...)
}

// Reference returns the topology the deltas are measured against (the
// fitted system's run topology).
func (s *Surrogate) Reference() hw.Topology { return s.topos[s.refIdx] }

// Costs returns the fitted per-class cost vector — the decomposition
// behind every prediction, reportable as a table.
func (s *Surrogate) Costs() []ClassCost {
	return append([]ClassCost(nil), s.costs...)
}

// Candidates enumerates the full joint class × topology grid as bound
// plans, in the canonical odometer order (first union class cycling
// fastest) every search in this package shares, so ties resolve
// identically everywhere.
func (s *Surrogate) Candidates() []collective.Plan {
	g := s.grid()
	out := make([]collective.Plan, g.n)
	for i := range out {
		out[i] = s.plan(g.at(i))
	}
	return out
}

// planIdx resolves a plan to per-union-class topology indices;
// unbound classes resolve to the reference topology.
func (s *Surrogate) planIdx(p collective.Plan) []int {
	idx := make([]int, len(s.union))
	for i, c := range s.union {
		idx[i] = slices.Index(s.topos, p.Topology(c, s.topos[s.refIdx]))
	}
	return idx
}

// PredictCycles predicts the plan's whole-session cycle cost (prompt
// prefill plus one decode step) from the fitted deltas — a few
// additions, no simulation.
func (s *Surrogate) PredictCycles(p collective.Plan) float64 {
	return s.predict(s.planIdx(p)).Cycles
}

// PredictSeconds predicts the plan's whole-session wall time the same
// way (seconds are fitted from the probe reports directly, so clock
// differences between phases need no assumptions).
func (s *Surrogate) PredictSeconds(p collective.Plan) float64 {
	return s.predict(s.planIdx(p)).Seconds
}

// PredictJoules predicts the plan's whole-session energy the same
// way.
func (s *Surrogate) PredictJoules(p collective.Plan) float64 {
	return s.predict(s.planIdx(p)).Joules
}

// predict composes a candidate's session cost from the fitted deltas:
// per phase the baseline plus its classes' deltas in class order, then
// the phases summed. Ranks and RankAccuracy depend on predictions to
// the last bit, so that summation order is part of the model.
func (s *Surrogate) predict(digits []int) SessionCost {
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

// Verify evaluates the given plans exactly — one phase-restricted
// point per phase, so probe and uniform configurations are served
// from the cache tiers — and returns one VerifiedPlan per input, in
// input order.
func (s *Surrogate) Verify(base core.System, plans []collective.Plan) ([]VerifiedPlan, error) {
	exact, err := evalExact("session verify", len(plans), func(k int, buf []evalpool.Point) []evalpool.Point {
		return s.points(buf, base, plans[k], false)
	})
	if err != nil {
		return nil, err
	}
	out := make([]VerifiedPlan, len(plans))
	for k, p := range plans {
		out[k] = verifiedPlan(p, s.predict(s.planIdx(p)), exact[k])
	}
	return out, nil
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
