package explore

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
)

// This file is the predict-then-verify core every autotuner in this
// package runs through. A search enumerates its candidates as an axis
// product, ranks them by a cheap additive prediction, verifies the
// predicted top-K plus its always-verified baselines exactly through
// one deduplicated evalpool.MapFills, and picks the winner on exact
// cycles.
// Predictions only decide what is worth verifying; the exact simulator
// decides who wins. A new axis (per-GEMM tiling, quantization bits)
// is one more digit of the enumeration and one more term of the
// prediction, not another search.

// plus adds two objective vectors component by component. SessionCost
// doubles as the objective vector every search prices and predicts:
// cycles, wall time and energy, summed over a candidate's points.
func (c SessionCost) plus(o SessionCost) SessionCost {
	return SessionCost{c.Cycles + o.Cycles, c.Seconds + o.Seconds, c.Joules + o.Joules}
}

// minus subtracts o component by component.
func (c SessionCost) minus(o SessionCost) SessionCost {
	return SessionCost{c.Cycles - o.Cycles, c.Seconds - o.Seconds, c.Joules - o.Joules}
}

// axisGrid is an axis product enumerated in odometer order, first axis
// cycling fastest, into one backing array.
type axisGrid struct {
	n      int // candidates
	width  int // axes
	digits []int
}

// odometer enumerates the product of the axis sizes.
func odometer(sizes ...int) axisGrid {
	g := axisGrid{n: 1, width: len(sizes)}
	for _, s := range sizes {
		g.n *= s
	}
	g.digits = make([]int, g.n*g.width)
	for i := 1; i < g.n; i++ {
		d := g.at(i)
		copy(d, g.at(i-1))
		for a := range d {
			if d[a]++; d[a] < sizes[a] {
				break
			}
			d[a] = 0
		}
	}
	return g
}

// at returns candidate i's digit per axis.
func (g axisGrid) at(i int) []int {
	return g.digits[i*g.width : (i+1)*g.width : (i+1)*g.width]
}

// indices returns 0, 1, ..., n-1: every candidate, in enumeration order.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// rankStable returns candidate indices ordered by prediction,
// ascending; ties keep enumeration order.
func rankStable(pred []float64) []int {
	order := indices(len(pred))
	sort.SliceStable(order, func(a, b int) bool { return pred[order[a]] < pred[order[b]] })
	return order
}

// verifySet returns the first k ranked candidates (all of them when k
// exceeds the list) followed by the baselines not among them, in
// baseline order: the set a search evaluates exactly.
func verifySet(ranked []int, k int, baselines []int) []int {
	k = min(k, len(ranked))
	sel := append(make([]int, 0, k+len(baselines)), ranked[:k]...)
	for _, b := range baselines {
		if !slices.Contains(sel, b) {
			sel = append(sel, b)
		}
	}
	return sel
}

// exactCost is one candidate's exact evaluation: its reports, one per
// point in spelling order, and their objectives summed in that order.
type exactCost struct {
	SessionCost
	reports []*core.Report
}

// evalExact evaluates n candidates exactly through one deduplicated
// evalpool.MapFills: spell appends candidate k's points to the reused
// buffer it is handed, and points repeated across candidates are
// evaluated once. It adds the points this call filled to *fills, a
// failed call's included: a search's exact-evaluation bill is the sum
// over its calls, so work running beside the search never reaches it.
// A failure names the search step what.
func evalExact(fills *int, what string, n int, spell func(k int, buf []evalpool.Point) []evalpool.Point) ([]exactCost, error) {
	var (
		points []evalpool.Point
		index  = map[evalpool.Point]int{}
		ids    []int // point ids, candidate after candidate
		ends   = make([]int, n)
		buf    []evalpool.Point
	)
	for k := range n {
		buf = spell(k, buf[:0])
		for _, pt := range buf {
			id, ok := index[pt]
			if !ok {
				id = len(points)
				points = append(points, pt)
				index[pt] = id
			}
			ids = append(ids, id)
		}
		ends[k] = len(ids)
	}
	reports, filled, err := evalpool.MapFills(points)
	*fills += filled
	if err != nil {
		return nil, fmt.Errorf("explore: %s: %w", what, err)
	}
	out := make([]exactCost, n)
	reps := make([]*core.Report, len(ids))
	start := 0
	for k, end := range ends {
		e := &out[k]
		e.reports = reps[start:end:end]
		for j, id := range ids[start:end] {
			rep := reports[id]
			e.reports[j] = rep
			e.Cycles += rep.Cycles
			e.Seconds += rep.Seconds
			e.Joules += rep.Energy.Total()
		}
		start = end
	}
	return out, nil
}

// winner returns the position in sel of the candidate with the fewest
// exact cycles; ties go to the earliest candidate, so the paper's tree
// wins exact draws.
func winner(sel []int, cycles func(k int) float64) int {
	best := 0
	for k := 1; k < len(sel); k++ {
		if c, b := cycles(k), cycles(best); c < b || (c == b && sel[k] < sel[best]) {
			best = k
		}
	}
	return best
}

// rankVerified orders the verified candidates sel (exact[k] evaluates
// sel[k]) by prediction, stably, and returns their positions with the
// predictor's rank concordance: the fraction of pairs in that order
// whose exact cycles agree with it (exact ties count as concordant; 1
// with fewer than two candidates).
func rankVerified(sel []int, pred []float64, exact []exactCost) ([]int, float64) {
	pv := make([]float64, len(sel))
	for k, i := range sel {
		pv[k] = pred[i]
	}
	order := rankStable(pv)
	pairs, ok := 0, 0
	for a := range order {
		for b := a + 1; b < len(order); b++ {
			pairs++
			if exact[order[a]].Cycles <= exact[order[b]].Cycles {
				ok++
			}
		}
	}
	if pairs == 0 {
		return order, 1
	}
	return order, float64(ok) / float64(pairs)
}

// paretoMask flags points not dominated in (latency, energy): a point
// is dominated when another is no worse on both axes and strictly
// better on at least one; exact duplicates (equal latency AND equal
// energy) do not dominate each other, so both stay on the front.
//
// Single pass over a latency-sorted order instead of the O(n²)
// all-pairs scan: with candidates sorted by latency, a point can only
// be dominated by the minimum energy seen at strictly lower latency,
// or by a strictly lower energy at equal latency.
func paretoMask(secs, joules []float64) []bool {
	pareto := make([]bool, len(secs))
	order := indices(len(secs))
	sort.Slice(order, func(a, b int) bool {
		if secs[order[a]] != secs[order[b]] {
			return secs[order[a]] < secs[order[b]]
		}
		return joules[order[a]] < joules[order[b]]
	})
	bestEnergy := math.Inf(1) // min energy among strictly faster points
	for g := 0; g < len(order); {
		// One group of equal-latency points; within it only a strictly
		// lower energy dominates, so the group minimum survives
		// (duplicates of the minimum included).
		sec := secs[order[g]]
		end := g
		groupMin := math.Inf(1)
		for ; end < len(order) && secs[order[end]] == sec; end++ {
			if e := joules[order[end]]; e < groupMin {
				groupMin = e
			}
		}
		for ; g < end; g++ {
			e := joules[order[g]]
			pareto[order[g]] = bestEnergy > e && groupMin >= e
		}
		if groupMin < bestEnergy {
			bestEnergy = groupMin
		}
	}
	return pareto
}
