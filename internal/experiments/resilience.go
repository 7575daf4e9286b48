package experiments

import (
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/model"
	"mcudist/internal/resilience"
)

// ResilienceRow is one fault scenario of the resilience-margin study:
// a pristine operating point is autotuned, a fault degrades the board,
// and the stale plan races the re-planned one on the degraded system.
type ResilienceRow struct {
	Chips  int
	Faults string
	// DegradedChips is the board size after the fault (smaller than
	// Chips when a chip drops).
	DegradedChips int
	// StalePlan is the pristine winner the static fleet keeps serving;
	// StaticCycles its exact session cost on the degraded board (0 and
	// StaticErr set when it no longer validates there).
	StalePlan    string
	StaticCycles float64
	StaticErr    string
	// AdoptedPlan is what a re-planning fleet serves (the better of
	// stale and re-tuned on exact cycles); ReplanPays reports whether
	// re-tuning actually changed the plan.
	AdoptedPlan   string
	AdoptedCycles float64
	ReplanPays    bool
	// MarginCycles is the resilience margin — the latency factor a
	// static fleet pays for not re-planning (>= 1; +Inf when the stale
	// plan is infeasible on the degraded wiring). MarginJoules is the
	// same ratio in energy.
	MarginCycles float64
	MarginJoules float64
	// ExactSims is the exact-evaluation bill of the degraded-board
	// comparison (static pricing plus the re-tune), counting only the
	// points the comparison filled itself.
	ExactSims int
}

// ResilienceMargin measures the re-planning margin at the paper's two
// pinned operating points — 8-chip TinyLlama and the 64-chip scaled
// model, both on uniform MIPI wiring — under the three fault families
// the resilience tier injects: a dropped chip, a 10x-degraded link,
// and a 2x compute straggler.
//
// The shape of the result, pinned in TestResilienceMargin: at 64
// chips the pristine winner is the prefill-ring/decode-tree hybrid,
// and every fault leaves the re-planned session no worse than serving
// the stale hybrid on the degraded board — the margin is the price of
// not re-planning, >= 1 by construction and measured here.
func ResilienceMargin() ([]ResilienceRow, error) {
	scenarios := []struct {
		cfg   model.Config
		chips int
	}{
		{model.TinyLlama42M(), 8},
		{model.TinyLlamaScaled64(), 64},
	}
	faultSets := [][]resilience.Fault{
		{resilience.DropChip(3)},
		{resilience.SlowEdge(0, 1, 10)},
		{resilience.StraggleChip(3, 2)},
	}
	// The two boards share no point, so they are studied side by side.
	perBoard := make([][]*resilience.Study, len(scenarios))
	err := evalpool.Each(len(scenarios), func(i int) error {
		sc := scenarios[i]
		var err error
		perBoard[i], err = resilience.ReplanStudy(
			core.DefaultSystem(sc.chips), sc.cfg, faultSets, explore.SessionOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	var rows []ResilienceRow
	for i, studies := range perBoard {
		sc := scenarios[i]
		for _, study := range studies {
			r := study.Replan
			row := ResilienceRow{
				Chips:         sc.chips,
				Faults:        resilience.FaultsString(study.Faults),
				DegradedChips: study.DegradedChips,
				StalePlan:     study.Pristine.Plan.String(),
				StaticErr:     r.StaticErr,
				AdoptedPlan:   r.AdoptedPlan.String(),
				AdoptedCycles: r.AdoptedCycles,
				ReplanPays:    r.ReplanPays,
				MarginCycles:  r.MarginCycles,
				MarginJoules:  r.MarginJoules,
				ExactSims:     r.ExactSims,
			}
			if r.Static != nil {
				row.StaticCycles = r.Static.Cycles
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
