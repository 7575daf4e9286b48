package explore

import (
	"fmt"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// ClassChoice is one per-class decision of an autotuned collective
// plan.
type ClassChoice struct {
	Class    collective.SyncClass
	Topology hw.Topology
}

// AutotuneResult is the outcome of a per-sync plan autotuning.
type AutotuneResult struct {
	// Plan binds the winning topology to every synchronization class
	// the workload executes; other classes stay unbound.
	Plan collective.Plan
	// Report is the winning plan's evaluation.
	Report *core.Report
	// PerClass lists the winning choice per active class, in class
	// order — the "per-class winner table".
	PerClass []ClassChoice
	// BestUniform is the best single-topology configuration of the
	// same system, with its report — the baseline a mixed plan has to
	// beat.
	BestUniform   hw.Topology
	UniformReport *core.Report
	// Margin is UniformReport.Cycles / Report.Cycles: how much the
	// per-sync plan buys over the best run-wide topology (>= 1; 1
	// means the best plan is a uniform one).
	Margin float64
}

// AutotunePlan is the session search of AutotuneSession over the one
// phase the workload runs, with every candidate verified: it
// enumerates the class × topology grid of the synchronization classes
// the workload executes (two per strategy and mode, so topologies^2
// candidates — 16 on the four stock shapes), evaluates each through
// the shared evalpool engine, and returns the winning plan with its
// margin over the best uniform topology. Points are spelled
// phase-restricted, so the 4 all-same tuples share their simulations
// with the uniform baselines (and with plain sweeps of that topology):
// the grid evaluates exactly its distinct configurations,
// and points repeated across calls are served from the process-wide
// report cache. Ties keep the earliest candidate in enumeration order,
// so the paper's tree wins exact draws.
func AutotunePlan(base core.System, wl core.Workload) (*AutotuneResult, error) {
	classes := collective.ActiveClasses(base.Strategy, wl.Mode)
	if len(classes) == 0 {
		return nil, fmt.Errorf("explore: the %s strategy executes no collective synchronizations to plan", base.Strategy)
	}
	sp := newPlanSpace(sessionMode{wl: wl, classes: classes})
	ps, err := searchPlans(new(int), "autotune", sp, base, nil, 0, false)
	if err != nil {
		return nil, err
	}
	res := &AutotuneResult{
		Plan:          ps.candidate(ps.best),
		Report:        ps.exact[ps.best].reports[0],
		BestUniform:   ps.uniformTopo,
		UniformReport: ps.exact[ps.uniform].reports[0],
	}
	res.PerClass = perClass(res.Plan, classes)
	res.Margin = res.UniformReport.Cycles / res.Report.Cycles
	return res, nil
}
