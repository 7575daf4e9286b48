package resilience

import (
	"fmt"

	"mcudist/internal/core"
	"mcudist/internal/explore"
	"mcudist/internal/model"
)

// Degrade is Perturb plus partition legality: when dropping chips
// leaves a count the model's tensor-parallel scheme cannot split
// across (more chips than heads never happens here, but a GQA model
// can lose divisibility), the system shrinks to the largest legal
// chip count at or below the survivor count — the realistic recovery:
// re-partition onto the biggest usable subset and idle the rest. A
// straggler or degraded link on an idled chip no longer slows the run,
// so it is cleared.
func Degrade(sys core.System, cfg model.Config, faults ...Fault) (core.System, []int, error) {
	out, remap, err := Perturb(sys, faults...)
	if err != nil {
		return core.System{}, nil, err
	}
	counts := explore.LegalChipCounts(cfg, out.Chips)
	if len(counts) == 0 {
		return core.System{}, nil, fmt.Errorf("resilience: no legal chip count at or below %d survivors", out.Chips)
	}
	out.Chips = counts[len(counts)-1]
	if out.Options.StragglerFactor > 0 && out.Options.StragglerChip >= out.Chips {
		out.Options.StragglerChip, out.Options.StragglerFactor = 0, 0
	}
	if out.Options.DegradedLinkFactor > 0 && out.Options.DegradedLinkChip >= out.Chips {
		out.Options.DegradedLinkChip, out.Options.DegradedLinkFactor = 0, 0
	}
	return out, remap, nil
}

// Study is one resilience-margin measurement: a pristine system is
// tuned, a fault degrades it, and the stale plan races the re-tuned
// one on the degraded board.
type Study struct {
	// Faults is what happened to the board; Chips / DegradedChips the
	// chip counts before and after (they differ when a chip drops).
	Faults        []Fault
	Chips         int
	DegradedChips int
	// Pristine is the session autotune on the healthy board — its
	// Plan is the stale plan the static fleet keeps serving.
	Pristine *explore.SessionResult
	// Replan is the degraded-board comparison: stale vs re-tuned vs
	// uniform baselines, with the resilience margin.
	Replan *explore.ReplanResult
}

// ReplanStudy measures the resilience margin of fault scenarios on one
// pristine system: tune it once, then for each fault set apply the
// faults and compare serving the stale plan on the degraded board
// against re-planning for it. It returns one study per fault set, in
// order, sharing the pristine tune. A study's Replan.MarginCycles is
// the headline number — how much latency the static fleet pays before
// re-planning, >= 1 by construction (+Inf when the stale plan no
// longer validates).
func ReplanStudy(sys core.System, cfg model.Config, faultSets [][]Fault, opts explore.SessionOptions) ([]*Study, error) {
	pristine, err := explore.AutotuneSession(sys, cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("resilience: pristine autotune: %w", err)
	}
	studies := make([]*Study, 0, len(faultSets))
	for _, faults := range faultSets {
		degraded, _, err := Degrade(sys, cfg, faults...)
		if err != nil {
			return nil, err
		}
		replan, err := explore.ReplanSession(degraded, cfg, pristine.Plan, opts)
		if err != nil {
			return nil, err
		}
		studies = append(studies, &Study{
			Faults:        faults,
			Chips:         sys.Chips,
			DegradedChips: degraded.Chips,
			Pristine:      pristine,
			Replan:        replan,
		})
	}
	return studies, nil
}
