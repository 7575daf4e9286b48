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
// AutotuneTiling, PlanFrontier, PlanBudgetFit, Surrogate.Verify and
// EvalSessionPlan differ only in their axes, their predictor and how
// they spell a candidate as evaluation points.
//
// Concurrency model: every search evaluates its candidates through
// the shared evalpool engine. The autotuners and frontiers fan a whole
// point set out at once; the first-match searches
// (MinChipsOffChipFree, BudgetFit) evaluate one worker-sized wave at
// a time so an answer at a small chip count never pays for the large
// ones. Decisions are always made over results in candidate order, so
// answers are identical to a serial scan; repeated points are served
// from the process-wide report cache.
package explore

import (
	"fmt"
	"math"
	"sort"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
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

// PowersOfTwo filters counts to powers of two (the paper's sweep
// shape), always keeping 1.
func PowersOfTwo(counts []int) []int {
	var out []int
	for _, n := range counts {
		if n&(n-1) == 0 {
			out = append(out, n)
		}
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

// markPareto flags points not dominated in (latency, energy).
func markPareto(points []Point) {
	reports := make([]*core.Report, len(points))
	for i := range points {
		reports[i] = points[i].Report
	}
	for i, p := range reportPareto(reports) {
		points[i].Pareto = p
	}
}

// ParetoFront returns only the Pareto-optimal points, ordered by
// latency.
func ParetoFront(points []Point) []Point {
	var out []Point
	for _, p := range points {
		if p.Pareto {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Report.Seconds < out[j].Report.Seconds
	})
	return out
}

// ClassCycles is one synchronization class's share of a point's
// chip-to-chip link time (summed across chips).
type ClassCycles struct {
	Class    collective.SyncClass
	Topology hw.Topology
	// C2CCycles is the class's link busy time.
	C2CCycles float64
}

// classCycles extracts the per-sync C2C attribution of a report.
func classCycles(rep *core.Report) []ClassCycles {
	out := make([]ClassCycles, 0, len(rep.ByClass))
	for _, cs := range rep.ByClass {
		out = append(out, ClassCycles{Class: cs.Class, Topology: cs.Topology, C2CCycles: cs.C2CCycles})
	}
	return out
}

// TopologyPoint is one evaluated (topology, chip count) configuration
// of a topology-aware design-space sweep.
type TopologyPoint struct {
	Topology hw.Topology
	Chips    int
	Report   *core.Report
	// C2CCyclesByClass attributes the point's chip-to-chip link time
	// to synchronization classes (prefill vs decode vs the replicated
	// exchanges), so a per-sync plan's win over this point is
	// attributable to the classes that produced it rather than only
	// the total.
	C2CCyclesByClass []ClassCycles
	// Pareto marks latency/energy Pareto-optimal points within the
	// explored topology × chip-count grid.
	Pareto bool
}

// TopologyFrontier evaluates the workload over the full topology ×
// chip-count grid and marks the latency/energy Pareto front across
// the union — the network shape becomes an exploration axis next to
// the chip count. Points are returned grouped by topology in enum
// order, chip counts ascending within each topology: the
// NetworkFrontier of the base system's own network.
func TopologyFrontier(base core.System, wl core.Workload, chips []int) ([]TopologyPoint, error) {
	points, err := NetworkFrontier(base, wl, chips, []hw.Network{base.HW.Network})
	if err != nil {
		return nil, err
	}
	out := make([]TopologyPoint, len(points))
	for i, p := range points {
		out[i] = TopologyPoint{Topology: p.Topology, Chips: p.Chips, Report: p.Report,
			C2CCyclesByClass: p.C2CCyclesByClass, Pareto: p.Pareto}
	}
	return out, nil
}

// NetworkPoint is one evaluated (topology, network, chip count)
// configuration of a network-aware design-space sweep.
type NetworkPoint struct {
	Topology hw.Topology
	Network  hw.Network
	Chips    int
	Report   *core.Report
	// C2CCyclesByClass attributes the point's chip-to-chip link time
	// to synchronization classes, as on TopologyPoint.
	C2CCyclesByClass []ClassCycles
	// Pareto marks latency/energy Pareto-optimal points within the
	// explored topology × network × chip-count grid.
	Pareto bool
}

// NetworkFrontier evaluates the workload over the full topology ×
// network-profile × chip-count grid and marks the latency/energy
// Pareto front across the union — the link layer becomes an
// exploration axis next to the shape and the chip count, which is
// where clustered boards show their trade: a topology that wins under
// uniform links can lose once its hops cross a slow backhaul. Points
// are grouped by network in input order, then topology in enum order,
// chip counts ascending.
func NetworkFrontier(base core.System, wl core.Workload, chips []int, nets []hw.Network) ([]NetworkPoint, error) {
	topos := hw.Topologies()
	grid := odometer(len(chips), len(topos), len(nets))
	points := make([]evalpool.Point, grid.n)
	out := make([]NetworkPoint, grid.n)
	for i := range grid.n {
		d := grid.at(i)
		p := NetworkPoint{Topology: topos[d[1]], Network: nets[d[2]], Chips: chips[d[0]]}
		sys := base
		sys.HW.Network, sys.HW.Topology, sys.Chips = p.Network, p.Topology, p.Chips
		points[i], out[i] = evalpool.Point{System: sys, Workload: wl}, p
	}
	reports, err := evalpool.Map(points)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	for i, pareto := range reportPareto(reports) {
		out[i].Report = reports[i]
		out[i].C2CCyclesByClass = classCycles(reports[i])
		out[i].Pareto = pareto
	}
	return out, nil
}

// BestTopology evaluates every interconnect shape on the base system
// (at its chip count) and returns the lowest-latency one with its
// report. The base system's network description participates fully:
// under a clustered backhaul the winner can differ from the uniform
// network's. Ties keep the earliest shape in enum order, so the
// paper's tree wins exact draws.
func BestTopology(base core.System, wl core.Workload) (hw.Topology, *core.Report, error) {
	topos := hw.Topologies()
	points := make([]evalpool.Point, len(topos))
	for i, topo := range topos {
		sys := base
		sys.HW.Topology = topo
		points[i] = evalpool.Point{System: sys, Workload: wl}
	}
	reports, err := evalpool.Map(points)
	if err != nil {
		return 0, nil, fmt.Errorf("explore: %w", err)
	}
	best := winner(indices(len(topos)), func(i int) float64 { return reports[i].Cycles })
	return topos[best], reports[best], nil
}

// BudgetFit returns the cheapest (fewest-chip) configuration meeting
// both a latency and an energy budget, or an error naming the binding
// constraint.
func BudgetFit(base core.System, wl core.Workload, maxChips int, maxSeconds, maxJoules float64) (*Point, error) {
	counts := LegalChipCounts(wl.Model, maxChips)
	bestLatency, bestEnergy := math.Inf(1), math.Inf(1)
	var found *Point
	err := evalWaves(base, wl, counts, func(i int, rep *core.Report) bool {
		if rep.Seconds < bestLatency {
			bestLatency = rep.Seconds
		}
		if rep.Energy.Total() < bestEnergy {
			bestEnergy = rep.Energy.Total()
		}
		if rep.Seconds <= maxSeconds && rep.Energy.Total() <= maxJoules {
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
	if bestLatency > maxSeconds {
		return nil, fmt.Errorf("explore: latency budget %.3g s unreachable (best %.3g s)", maxSeconds, bestLatency)
	}
	return nil, fmt.Errorf("explore: energy budget %.3g J unreachable (best %.3g J)", maxJoules, bestEnergy)
}
