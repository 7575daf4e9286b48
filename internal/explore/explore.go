// Package explore is the design-space exploration layer on top of the
// simulator. Given a model and a workload, it answers the sizing and
// placement questions the paper's scheme raises in practice: how many
// chips until off-chip traffic leaves the critical path, which chip
// counts are legal for a geometry, which configurations are
// Pareto-optimal in latency and energy, and which per-sync topology
// plan, per-family DRAM tiling, or post-fault re-plan to deploy.
//
// Every autotuner runs one predict-then-verify core (search.go):
// enumerate an axis product, rank the candidates by an additive
// prediction, verify the predicted top-K plus the always-verified
// baselines exactly, and pick the winner on exact cycles, ties going
// to the earliest candidate. AutotunePlan, AutotuneSession,
// AutotuneTiling and PlanFrontier differ only in their axes, their
// predictor and how they spell a candidate as evaluation points.
//
// Concurrency model: every search evaluates its candidates through
// the shared evalpool engine. The autotuners and frontiers fan a whole
// point set out at once; the first-match search MinChipsOffChipFree
// evaluates one worker-sized wave at a time so an answer at a small
// chip count never pays for the large ones. Decisions are always made
// over results in candidate order, so answers are identical to a
// serial scan; repeated points are served from the process-wide report
// cache. A search's ExactSims bills only the points its own
// evaluations filled, so searches over disjoint systems may run side
// by side and each still bills what it would alone.
package explore

import (
	"fmt"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/model"
)

// Point is one evaluated configuration.
type Point struct {
	Chips  int
	Report *core.Report
	// Pareto marks latency/energy Pareto-optimal points within the
	// explored set.
	Pareto bool
}

// LegalChipCounts returns the chip counts the tensor-parallel plan
// accepts for cfg, up to max: every count from 1 to
// min(max, KVHeadCount, F).
func LegalChipCounts(cfg model.Config, max int) []int {
	limit := cfg.KVHeadCount()
	if cfg.F < limit {
		limit = cfg.F
	}
	if max < limit {
		limit = max
	}
	var out []int
	for n := 1; n <= limit; n++ {
		out = append(out, n)
	}
	return out
}

// evalWaves evaluates counts through the pool one worker-sized wave
// at a time, calling visit on each report in count order; visit
// returning true stops the scan and leaves later waves unsimulated.
// This keeps the serial scan's early-exit economics (an answer at a
// small count never pays for the large ones) while each wave still
// fans out across the workers.
func evalWaves(base core.System, wl core.Workload, counts []int, visit func(i int, rep *core.Report) bool) error {
	wave := evalpool.Default().Workers()
	for start := 0; start < len(counts); start += wave {
		end := start + wave
		if end > len(counts) {
			end = len(counts)
		}
		reports, err := evalpool.Eval(base, wl, counts[start:end])
		if err != nil {
			return err
		}
		for i, rep := range reports {
			if visit(start+i, rep) {
				return nil
			}
		}
	}
	return nil
}

// MinChipsOffChipFree returns the smallest chip count (≤ maxChips)
// whose deployment keeps L3 off the runtime critical path, together
// with its report. It returns an error if no configuration qualifies.
func MinChipsOffChipFree(base core.System, wl core.Workload, maxChips int) (*Point, error) {
	counts := LegalChipCounts(wl.Model, maxChips)
	var found *Point
	err := evalWaves(base, wl, counts, func(i int, rep *core.Report) bool {
		if rep.Tier.OffChipFree() {
			found = &Point{Chips: counts[i], Report: rep}
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	if found != nil {
		return found, nil
	}
	return nil, fmt.Errorf("explore: no configuration up to %d chips runs %s off-chip free",
		maxChips, wl.Model.Name)
}

// reportPareto is paretoMask over the reports' latency and energy.
func reportPareto(reports []*core.Report) []bool {
	secs := make([]float64, len(reports))
	joules := make([]float64, len(reports))
	for i, rep := range reports {
		secs[i], joules[i] = rep.Seconds, rep.Energy.Total()
	}
	return paretoMask(secs, joules)
}

// Frontier evaluates the workload at the given chip counts and marks
// the latency/energy Pareto front.
func Frontier(base core.System, wl core.Workload, chips []int) ([]Point, error) {
	reports, err := evalpool.Eval(base, wl, chips)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	pareto := reportPareto(reports)
	points := make([]Point, len(chips))
	for i, rep := range reports {
		points[i] = Point{Chips: chips[i], Report: rep, Pareto: pareto[i]}
	}
	return points, nil
}
