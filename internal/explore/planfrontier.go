package explore

import (
	"fmt"
	"math"
	"sort"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/model"
)

// This file is the surrogate-first face of the frontier family:
// Frontier prices every chip count with an exact simulation, which is
// the right tool when each cell is one simulation but not for the
// collective-plan axis, whose joint grid multiplies every cell by
// topologies^classes (256 session plans for the tensor-parallel
// scheme). PlanFrontier folds that axis in by fitting the shared
// surrogate once per chip count — ~20 probe simulations — predicting
// all candidates, and exactly verifying only the predicted Pareto
// edge, the predicted top-K, and the uniform baselines. Exact
// simulation remains the ground truth: every returned point is
// exactly evaluated, and predictions only decide what is worth
// verifying.

// PlanFrontierOptions tunes PlanFrontier.
type PlanFrontierOptions struct {
	// Exhaustive disables the surrogate and evaluates every joint plan
	// exactly, as deployed — the ground-truth reference the
	// equivalence tests hold the surrogate-first scan to. It costs
	// GridSims simulations.
	Exhaustive bool
}

// PlanPoint is one exactly-verified (chip count, plan) candidate of a
// plan-aware frontier scan.
type PlanPoint struct {
	Chips int
	VerifiedPlan
	// Pareto marks session latency/energy Pareto-optimal points within
	// the verified union.
	Pareto bool
}

// PlanFrontierResult is the outcome of a surrogate-first plan
// frontier scan.
type PlanFrontierResult struct {
	// Points lists the exactly-verified candidates grouped by chip
	// count in input order, then candidate in enumeration order; the
	// Pareto marks span the whole union.
	Points []PlanPoint
	// Candidates is the full plan-grid size across all cells; GridSims
	// is the exact-simulation bill of enumerating it exhaustively as
	// deployed; ExactSims is the number of distinct exact evaluations
	// this scan filled itself (disk-served evaluations count, so the
	// number is identical cold and warm, and work running beside the
	// scan is never billed to it).
	Candidates int
	GridSims   int
	ExactSims  int
}

// planCell runs one chip-count cell of the scan, billing its exact
// evaluations to *fills, and returns its verified candidates in
// enumeration order.
func planCell(fills *int, sys core.System, cfg model.Config, exhaustive bool) ([]VerifiedPlan, int, error) {
	sp, err := sessionSpace(sys, cfg, SessionOptions{})
	if err != nil {
		return nil, 0, err
	}
	if exhaustive {
		ps, err := searchPlans(fills, "session grid", sp, sys, nil, 0, true)
		if err != nil {
			return nil, 0, err
		}
		out := make([]VerifiedPlan, len(ps.sel))
		for k, e := range ps.exact {
			out[k] = verifiedPlan(ps.candidate(k), e.SessionCost, e)
		}
		return out, ps.cands.n, nil
	}

	ref, err := sp.reference(sys.HW.Topology)
	if err != nil {
		return nil, 0, err
	}
	s, err := fitSurrogate(fills, sys, sp, ref)
	if err != nil {
		return nil, 0, err
	}
	cands := sp.grid()
	pred := make([]SessionCost, cands.n)
	predS := make([]float64, cands.n)
	predJ := make([]float64, cands.n)
	for i := range pred {
		pred[i] = s.predict(cands.at(i))
		predS[i], predJ[i] = pred[i].Seconds, pred[i].Joules
	}

	// Seed the verification set: the predicted top-K on each
	// objective, plus the uniform plans — whose phase points are the
	// surrogate's own probes, so they verify without new simulations
	// and keep the scan honest against every single-topology baseline.
	pick := make([]bool, cands.n)
	for _, obj := range [][]float64{predS, predJ} {
		for _, i := range verifySet(rankStable(obj), DefaultSessionTopK, sp.uniforms()) {
			pick[i] = true
		}
	}

	// verify evaluates candidates exactly, one phase-restricted point
	// per phase, so probe and uniform configurations are served from
	// the cache tiers.
	verify := func(sel []int) ([]VerifiedPlan, error) {
		exact, err := evalExact(fills, "session verify", len(sel), func(k int, buf []evalpool.Point) []evalpool.Point {
			return sp.points(buf, sys, sp.plan(cands.at(sel[k])), false)
		})
		if err != nil {
			return nil, err
		}
		out := make([]VerifiedPlan, len(sel))
		for k, i := range sel {
			out[k] = verifiedPlan(sp.plan(cands.at(i)), pred[i], exact[k])
		}
		return out, nil
	}
	var sel []int
	for i, picked := range pick {
		if picked {
			sel = append(sel, i)
		}
	}
	verified, err := verify(sel)
	if err != nil {
		return nil, 0, err
	}

	// Refine to the exact Pareto edge: the additive prediction misses
	// within-phase interactions, so near-ties can hide true front
	// members. Bound the model's error by twice the largest residual
	// observed on the verified points, and exactly verify every
	// candidate whose optimistic corner (prediction minus that bound)
	// is not dominated by an already-verified exact point — if its
	// prediction can still reach the front, it gets measured. Repeat
	// until the band is empty; each verified point also tightens what
	// "can still reach" means. The phase-restricted verification
	// spellings share simulations heavily (topologies^per-phase-classes
	// distinct points per phase in the worst case), so even a
	// degenerate band stays far below the as-deployed grid bill.
	for {
		var errS, errJ float64
		for k, vp := range verified {
			if d := math.Abs(predS[sel[k]] - vp.Seconds); d > errS {
				errS = d
			}
			if d := math.Abs(predJ[sel[k]] - vp.Joules); d > errJ {
				errJ = d
			}
		}
		errS *= 2
		errJ *= 2
		var band []int
		for i, picked := range pick {
			if picked {
				continue
			}
			cornerS, cornerJ := predS[i]-errS, predJ[i]-errJ
			dominated := false
			for _, vp := range verified {
				if (vp.Seconds < cornerS && vp.Joules <= cornerJ) ||
					(vp.Seconds <= cornerS && vp.Joules < cornerJ) {
					dominated = true
					break
				}
			}
			if !dominated {
				band = append(band, i)
			}
		}
		if len(band) == 0 {
			break
		}
		more, err := verify(band)
		if err != nil {
			return nil, 0, err
		}
		for _, i := range band {
			pick[i] = true
		}
		sel = append(sel, band...)
		verified = append(verified, more...)
	}

	// Return in candidate enumeration order, so output is independent
	// of the refinement's round structure.
	order := indices(len(sel))
	sort.Slice(order, func(a, b int) bool { return sel[order[a]] < sel[order[b]] })
	out := make([]VerifiedPlan, len(order))
	for j, k := range order {
		out[j] = verified[k]
	}
	return out, cands.n, nil
}

// PlanFrontier scans the collective-plan axis jointly with the chip
// count on the base system's network: per chip count it fits the
// shared surrogate, predicts the whole joint plan grid on both session
// objectives, and exactly verifies the predicted Pareto edge, the
// per-objective top-K, and the uniform baselines.
// The returned points are all exactly evaluated, with the session
// latency/energy Pareto front marked across the verified union — on
// the pinned operating points the equivalence tests hold that front
// identical to exhaustive enumeration at a fraction of the
// simulations (ExactSims vs GridSims).
func PlanFrontier(base core.System, cfg model.Config, chips []int, opts PlanFrontierOptions) (*PlanFrontierResult, error) {
	var fills int
	res := &PlanFrontierResult{}
	for _, n := range chips {
		sys := base
		sys.Chips = n
		verified, cells, err := planCell(&fills, sys, cfg, opts.Exhaustive)
		if err != nil {
			return nil, fmt.Errorf("explore: plan frontier (%s, %d chips): %w", base.HW.Network, n, err)
		}
		res.Candidates += cells
		for _, vp := range verified {
			res.Points = append(res.Points, PlanPoint{Chips: n, VerifiedPlan: vp})
		}
	}
	res.GridSims = 2 * res.Candidates
	// Session-level Pareto over the verified union.
	secs := make([]float64, len(res.Points))
	jls := make([]float64, len(res.Points))
	for i, p := range res.Points {
		secs[i], jls[i] = p.Seconds, p.Joules
	}
	for i, pareto := range paretoMask(secs, jls) {
		res.Points[i].Pareto = pareto
	}
	res.ExactSims = fills
	return res, nil
}
