package explore

import (
	"fmt"
	"slices"

	"mcudist/internal/core"
	"mcudist/internal/deploy"
	"mcudist/internal/evalpool"
	"mcudist/internal/kernels"
	"mcudist/internal/memsim"
)

// This file autotunes the memory-hierarchy tile shapes — one tiling
// per layer family (attention projections vs feed-forward matrices) —
// for a streamed-tier deployment under the DRAM-backed memory model.
// The joint grid is attention-candidates × FFN-candidates exact
// simulations if enumerated naively. AutotuneTiling avoids almost all
// of them with a predict-then-verify structure that needs ZERO probe
// simulations: the simulator executes each streamed GEMM tile-by-tile
// at exactly its closed-form plan makespan (an identity the perfsim
// tests pin), so the per-family sum of memsim plan makespans over one
// lowering — max across chips, scaled by each chip's block count — is
// already an additive predictor of how a (attention, FFN) tiling pair
// ranks. Only the predicted top-K pairs (plus the best uniform
// tilings, which the margin baseline needs anyway) are verified with
// exact simulations; the winner is always chosen on verified cycles.

// DefaultTilingTopK is the number of predicted-best tiling pairs
// AutotuneTiling verifies exactly when TilingOptions.TopK is zero.
const DefaultTilingTopK = 4

// DefaultUniformVerify is how many predicted-best uniform tilings the
// search always verifies: the margin baseline a per-family split has
// to beat.
const DefaultUniformVerify = 2

// TilingOptions tunes AutotuneTiling.
type TilingOptions struct {
	// TopK is the number of predicted-best (attention, FFN) tiling
	// pairs to verify with exact simulations (0 selects
	// DefaultTilingTopK). The predicted-best uniform tilings are
	// always verified in addition, so the winner can never lose to a
	// single shared tiling.
	TopK int
	// Exhaustive disables the predictor ranking and evaluates every
	// pair in the (possibly capped) grid exactly. This is the
	// ground-truth reference the equivalence tests hold the pruned
	// search to; it costs one simulation per pair.
	Exhaustive bool
	// Candidates caps each family's tiling list to its
	// predicted-best C entries (0 keeps the whole shared candidate
	// pool). The cap bounds the exhaustive grid, so equivalence tests
	// stay affordable.
	Candidates int
}

// TilingCandidate is one exactly-verified tiling pair: the pair, the
// closed-form prediction, and the exact cycles.
type TilingCandidate struct {
	Attn            memsim.Tiling
	FFN             memsim.Tiling
	PredictedCycles float64
	Cycles          float64
}

// TilingResult is the outcome of a per-family tiling autotuning.
type TilingResult struct {
	// Attn / FFN are the winning tilings per layer family; Cycles is
	// the winner's exact runtime and PredictedCycles the closed-form
	// estimate that ranked it (per-family makespan sums, not a
	// simulation — the two agree only up to cross-op overlap and
	// non-GEMM work, which is exactly why the exact simulator stays
	// the ground truth).
	Attn            memsim.Tiling
	FFN             memsim.Tiling
	Cycles          float64
	PredictedCycles float64
	// Report is the winner's exact evaluation.
	Report *core.Report
	// BestUniform is the best single tiling shared by both families —
	// the baseline a per-family split has to beat — with its exact
	// cycles, report, and the win margin UniformCycles / Cycles
	// (>= 1; 1 means one shared tiling is optimal).
	BestUniform   memsim.Tiling
	UniformCycles float64
	UniformReport *core.Report
	Margin        float64
	// RankAccuracy is the predictor's pairwise ordering concordance
	// over the verified candidates (1 under Exhaustive, where no
	// prediction happens).
	RankAccuracy float64
	// Candidates is the size of the (capped) pair grid; GridSims is
	// the exact-simulation bill of enumerating it exhaustively (one
	// per pair); ExactSims is the number of distinct exact evaluations
	// this call filled itself, so work running beside it is never
	// billed to it.
	Candidates int
	GridSims   int
	ExactSims  int
	// Verified lists the exactly-checked pairs in predicted order
	// (grid order under Exhaustive) — the predictor-vs-exact table.
	Verified []TilingCandidate
}

// family is one layer family's tileable GEMMs on the streamed chips.
// The chips of a deployment repeat a few GEMM shapes (EdgeLlama-1B's 8
// chips stream 56 GEMMs of 5 shapes), so familyCost plans each
// distinct shape once per tiling.
type family struct {
	// shapes are the distinct GEMMs, in first-seen order, and ops the
	// first kernel of each.
	shapes []memsim.GEMM
	ops    []kernels.Cost
	// chips are the streamed chips with GEMMs in this family.
	chips []famChip
	// makespan and spill are familyCost's per-shape prices.
	makespan, spill []float64
}

// famChip is one streamed chip's share of a family: its per-forward
// block count as the multiplier, and its GEMMs in kernel order as
// indexes into family.shapes.
type famChip struct {
	blocks float64
	gemms  []int
}

// index returns g's index in f.shapes, appending it and its kernel op
// when new.
func (f *family) index(g memsim.GEMM, op kernels.Cost) int {
	j := slices.Index(f.shapes, g)
	if j < 0 {
		j = len(f.shapes)
		f.shapes = append(f.shapes, g)
		f.ops = append(f.ops, op)
	}
	return j
}

// tilingFamilies splits the streamed chips' tileable GEMMs by layer
// family (the kernels carry the FFN tag the deployment planner set).
func tilingFamilies(d *deploy.Deployment) (attn, ffn *family) {
	attn, ffn = &family{}, &family{}
	for _, cd := range d.Chips {
		if cd.Tier != deploy.TierStreamed {
			continue
		}
		a := famChip{blocks: float64(cd.Blocks)}
		f := famChip{blocks: float64(cd.Blocks)}
		for _, ph := range cd.Phases {
			for _, c := range ph.Ops {
				if g, ok := memsim.GEMMOf(c); ok {
					if c.FFN {
						f.gemms = append(f.gemms, ffn.index(g, c))
					} else {
						a.gemms = append(a.gemms, attn.index(g, c))
					}
				}
			}
		}
		if len(a.gemms) > 0 {
			attn.chips = append(attn.chips, a)
		}
		if len(f.gemms) > 0 {
			ffn.chips = append(ffn.chips, f)
		}
	}
	for _, fam := range []*family{attn, ffn} {
		fam.makespan = make([]float64, len(fam.shapes))
		fam.spill = make([]float64, len(fam.shapes))
	}
	return attn, ffn
}

// tilingPool is the shared candidate pool: the deduplicated union of
// every streamed GEMM's slot-fitting tilings, in first-seen order.
// One shared pool (rather than per-family grids) keeps uniform
// tilings well-defined for both families.
func tilingPool(ch memsim.Channel, fams ...*family) []memsim.Tiling {
	var pool []memsim.Tiling
	seen := map[memsim.Tiling]bool{}
	for _, fam := range fams {
		for _, g := range fam.shapes {
			for _, t := range memsim.CandidateTilings(ch, g) {
				if !seen[t] {
					seen[t] = true
					pool = append(pool, t)
				}
			}
		}
	}
	return pool
}

// familyCost is the closed-form per-family predictor: the bottleneck
// chip's per-block makespan sum under tiling t, scaled by its block
// count, plus the tiling-dependent activation-spill transfers that
// deploy.SpillBytes bills the lowering (each extra column pass re-reads
// the GEMM input from L3 — the term that makes narrow tiles expensive
// even when their makespan looks good).
// Tile dimensions larger than a GEMM's own K/N clamp inside PlanGEMM,
// so every pool tiling prices every GEMM. Each distinct GEMM is
// planned once; the chips' sums add its prices in kernel order.
func familyCost(ch memsim.Channel, fam *family, t memsim.Tiling, spill bool) (float64, error) {
	for j, g := range fam.shapes {
		p, err := memsim.PlanGEMM(ch, g, t)
		if err != nil {
			return 0, err
		}
		fam.makespan[j] = p.Makespan()
		if spill {
			fam.spill[j] = ch.TransferCycles(deploy.SpillBytes(fam.ops[j], p))
		}
	}
	var worst float64
	for _, cg := range fam.chips {
		var sum float64
		for _, j := range cg.gemms {
			sum += fam.makespan[j]
			if spill {
				sum += fam.spill[j]
			}
		}
		if c := cg.blocks * sum; c > worst {
			worst = c
		}
	}
	return worst, nil
}

// tilingPoint spells one exact evaluation of a tiling pair: both
// families pinned explicitly on the base system, so a uniform pair
// (t, t) and the grid pair (t, t) share one cache entry.
func tilingPoint(base core.System, wl core.Workload, ta, tf memsim.Tiling) evalpool.Point {
	sys := base
	sys.HW.Mem.TileK, sys.HW.Mem.TileN = ta.K, ta.N
	sys.HW.Mem.FFNTileK, sys.HW.Mem.FFNTileN = tf.K, tf.N
	return evalpool.Point{System: sys, Workload: wl}
}

// AutotuneTiling tunes the DRAM-backed memory hierarchy's tile shapes
// per layer family — one tiling for the attention projections, one
// for the feed-forward matrices — for the base system's streamed-tier
// deployment of the workload.
//
// The search needs zero probe simulations: one lowering exposes every
// streamed GEMM, the closed-form plan makespans price each candidate
// tiling per family additively, and only the predicted top-K pairs
// plus the best uniform tilings are verified with exact simulations.
// The winner is the verified pair with the fewest exact cycles —
// predictions only choose what to verify, never who wins — and on the
// pinned operating points the equivalence tests hold it identical to
// exhaustive grid enumeration at a fraction of the simulations
// (ExactSims vs GridSims on the result). Set HW.Mem.TileK/TileN and
// FFNTileK/FFNTileN from the returned pair to deploy it.
func AutotuneTiling(base core.System, wl core.Workload, opts TilingOptions) (*TilingResult, error) {
	if !base.HW.Mem.Enabled() {
		return nil, fmt.Errorf("explore: tiling autotune needs the hierarchical memory model enabled (HW.Mem profile is %s)", base.HW.Mem.Profile)
	}
	d, err := core.Lower(base, wl)
	if err != nil {
		return nil, err
	}
	attn, ffn := tilingFamilies(d)
	if len(attn.chips) == 0 || len(ffn.chips) == 0 {
		return nil, fmt.Errorf("explore: tiling autotune needs a streamed-tier deployment with tileable GEMMs in both layer families (tier %v)", d.WorstTier())
	}
	ch := memsim.ChannelOf(base.HW)
	pool := tilingPool(ch, attn, ffn)
	if len(pool) == 0 {
		return nil, fmt.Errorf("explore: no candidate tilings fit the %d-byte stream slot", ch.SlotBytes)
	}

	// Closed-form family costs over the whole pool (no simulations).
	spill := !base.Options.NoActivationSpill
	aCost := make([]float64, len(pool))
	fCost := make([]float64, len(pool))
	for i, t := range pool {
		if aCost[i], err = familyCost(ch, attn, t, spill); err != nil {
			return nil, fmt.Errorf("explore: pricing attention tiling %s: %w", t, err)
		}
		if fCost[i], err = familyCost(ch, ffn, t, spill); err != nil {
			return nil, fmt.Errorf("explore: pricing FFN tiling %s: %w", t, err)
		}
	}
	aList, fList := rankStable(aCost), rankStable(fCost)
	if c := opts.Candidates; c > 0 && c < len(pool) {
		aList, fList = aList[:c], fList[:c]
	}

	// The pair grid, attention outer (the FFN axis cycles fastest),
	// with its additive prediction. The predicted-best uniform tilings
	// shared by both families follow the grid as extra candidates: the
	// margin baseline, always verified. A uniform (t, t) shares its
	// cache entry with the grid pair (t, t) when both families kept t,
	// and as a later candidate never displaces it on a tie.
	grid := odometer(len(fList), len(aList))
	uCost := make([]float64, len(pool))
	for i := range pool {
		uCost[i] = aCost[i] + fCost[i]
	}
	uniList := rankStable(uCost)
	if len(uniList) > DefaultUniformVerify {
		uniList = uniList[:DefaultUniformVerify]
	}
	predicted := make([]float64, grid.n, grid.n+len(uniList))
	for i := range grid.n {
		d := grid.at(i)
		predicted[i] = aCost[aList[d[1]]] + fCost[fList[d[0]]]
	}
	uniforms := make([]int, len(uniList))
	for j, pi := range uniList {
		uniforms[j] = len(predicted)
		predicted = append(predicted, uCost[pi])
	}
	pair := func(i int) (attn, ffn memsim.Tiling) {
		if i >= grid.n {
			t := pool[uniList[i-grid.n]]
			return t, t
		}
		d := grid.at(i)
		return pool[aList[d[1]]], pool[fList[d[0]]]
	}

	// Verify the predicted top-K pairs (every pair under Exhaustive)
	// and the uniforms; the winner is chosen on exact cycles.
	ranked, topK := indices(grid.n), grid.n
	if !opts.Exhaustive {
		ranked, topK = rankStable(predicted[:grid.n]), opts.TopK
		if topK <= 0 {
			topK = DefaultTilingTopK
		}
	}
	sel := verifySet(ranked, topK, uniforms)
	var fills int
	exact, err := evalExact(&fills, "tiling verify", len(sel), func(k int, buf []evalpool.Point) []evalpool.Point {
		attn, ffn := pair(sel[k])
		return append(buf, tilingPoint(base, wl, attn, ffn))
	})
	if err != nil {
		return nil, err
	}
	best := winner(sel, func(k int) float64 { return exact[k].Cycles })
	nv := len(sel) - len(uniforms) // the verified pairs precede the uniforms
	uni := nv + winner(sel[nv:], func(j int) float64 { return exact[nv+j].Cycles })
	res := &TilingResult{
		Cycles:          exact[best].Cycles,
		PredictedCycles: predicted[sel[best]],
		Report:          exact[best].reports[0],
		UniformCycles:   exact[uni].Cycles,
		UniformReport:   exact[uni].reports[0],
		RankAccuracy:    1,
		Candidates:      grid.n,
		GridSims:        grid.n,
	}
	res.Attn, res.FFN = pair(sel[best])
	res.BestUniform, _ = pair(sel[uni])
	res.Margin = res.UniformCycles / res.Cycles

	// The verified table, in predicted order with the predictor's rank
	// concordance (grid order under Exhaustive, where nothing ranks).
	order := indices(nv)
	if !opts.Exhaustive {
		order, res.RankAccuracy = rankVerified(sel[:nv], predicted, exact)
	}
	for _, k := range order {
		attn, ffn := pair(sel[k])
		res.Verified = append(res.Verified, TilingCandidate{
			Attn:            attn,
			FFN:             ffn,
			PredictedCycles: predicted[sel[k]],
			Cycles:          exact[k].Cycles,
		})
	}
	res.ExactSims = fills
	return res, nil
}
