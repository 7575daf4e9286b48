package explore

import (
	"fmt"
	"slices"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// This file autotunes a whole generation session — one prompt prefill
// plus one autoregressive decode step — jointly over the full
// class × topology grid. The joint grid is topologies^|classes|
// candidates (256 for the tensor-parallel scheme's four session
// classes), and evaluating each candidate as deployed costs two
// simulations, so exhaustive enumeration runs ~2·4^4 exact simulations
// per operating point — and multiplies again under a network-profile
// axis. AutotuneSession makes that tractable with the package's
// predict-then-verify core (search.go): the shared surrogate
// (surrogate.go) — a per-class cost decomposition built from one probe
// simulation per (class, topology) — predicts every candidate's
// session cost additively in microseconds, and only the predicted
// top-K candidates (plus the four uniform sessions, which the margin
// needs anyway) are verified with exact simulations. The exact
// simulator stays the ground truth: the winner is always chosen on
// verified cycles, never on predictions. AutotunePlan is the same
// search over a single phase with every candidate verified.

// DefaultSessionTopK is the number of predicted-best candidates
// AutotuneSession verifies exactly when SessionOptions.TopK is zero.
const DefaultSessionTopK = 8

// SessionOptions tunes AutotuneSession.
type SessionOptions struct {
	// TopK is the number of predicted-best joint candidates to verify
	// with exact simulations (the pruning knob; 0 selects
	// DefaultSessionTopK). The four uniform sessions are always
	// verified in addition — the margin baseline needs them — so the
	// winner can never lose to a uniform plan.
	TopK int
	// Exhaustive disables the predictor and evaluates every joint
	// candidate exactly, as deployed (the merged plan rides in both
	// phases' cache keys). This is the ground-truth reference the
	// equivalence tests hold the pruned search to; it costs
	// 2·topologies^|classes| simulations.
	Exhaustive bool
	// PromptSeqLen overrides the prompt phase's sequence length (0
	// selects the paper's value for the model); the decode step always
	// runs at the paper's value.
	PromptSeqLen int
}

// SessionCandidate is one exactly-verified joint candidate: its plan,
// the predictor's estimate, and the exact session cycles.
type SessionCandidate struct {
	Plan            collective.Plan
	PredictedCycles float64
	Cycles          float64
}

// SessionResult is the outcome of a joint prefill+decode plan
// autotuning.
type SessionResult struct {
	// Plan binds every session synchronization class — the prefill and
	// decode classes jointly — to its winning topology.
	Plan collective.Plan
	// Cycles is the winner's exact session cost (prefill + one decode
	// step); PredictedCycles is what the predictor estimated for it
	// before verification (equal to Cycles under Exhaustive).
	Cycles          float64
	PredictedCycles float64
	// PrefillReport / DecodeReport are the winner's two exact
	// evaluations.
	PrefillReport *core.Report
	DecodeReport  *core.Report
	// PerClass lists the winning choice per session class, in class
	// order.
	PerClass []ClassChoice
	// BestUniform is the best single-topology session — the baseline a
	// joint plan has to beat — with its session cycles and the win
	// margin UniformCycles / Cycles (>= 1; 1 means a uniform plan is
	// optimal).
	BestUniform   hw.Topology
	UniformCycles float64
	Margin        float64
	// RankAccuracy is the predictor's pairwise ordering concordance
	// over the verified candidates: the fraction of verified pairs the
	// predicted ranking ordered consistently with exact cycles (1 under
	// Exhaustive, where no prediction happens).
	RankAccuracy float64
	// Candidates is the size of the joint class × topology grid;
	// GridSims = 2 × Candidates is the exact-simulation bill of
	// enumerating it exhaustively; ExactSims is the number of distinct
	// exact evaluations this call filled itself (points already
	// memoized — shared probes, repeated calls — are not
	// double-billed, evaluations answered by a warm persistent store
	// still count, and work running beside the search is never billed
	// to it: the search cost is a property of the search, not of where
	// the reports were stored or what else the process ran).
	Candidates int
	GridSims   int
	ExactSims  int
	// Verified lists the exactly-checked candidates in predicted order
	// (empty under Exhaustive) — the predictor-vs-exact margin table.
	Verified []SessionCandidate
}

// sessionMode is one phase of a plan search: its workload, the
// synchronization classes it executes, and their positions on the
// joint plan axis.
type sessionMode struct {
	wl      core.Workload
	classes []collective.SyncClass
	axis    []int // axis[k] is classes[k]'s position in the union
}

// planSpace is the joint class × topology plan axis of a set of
// phases: the ordered union of their active classes, each bound to one
// of the stock topologies.
type planSpace struct {
	modes []sessionMode
	union []collective.SyncClass
	topos []hw.Topology
}

// newPlanSpace resolves the phases' joint plan axis. The
// tensor-parallel phases contribute disjoint classes; the replicated
// exchanges execute in both phases and appear once.
func newPlanSpace(modes ...sessionMode) planSpace {
	sp := planSpace{modes: modes, topos: hw.Topologies()}
	for mi := range sp.modes {
		m := &sp.modes[mi]
		m.axis = make([]int, len(m.classes))
		for k, c := range m.classes {
			a := slices.Index(sp.union, c)
			if a < 0 {
				a = len(sp.union)
				sp.union = append(sp.union, c)
			}
			m.axis[k] = a
		}
	}
	return sp
}

// sessionSpace resolves a session's two phases — the prompt prefill and
// one decode step — and their joint plan axis.
func sessionSpace(base core.System, cfg model.Config, opts SessionOptions) (planSpace, error) {
	pre := collective.ActiveClasses(base.Strategy, model.Prompt)
	dec := collective.ActiveClasses(base.Strategy, model.Autoregressive)
	if len(pre) == 0 || len(dec) == 0 {
		return planSpace{}, fmt.Errorf("explore: the %s strategy executes no collective synchronizations to plan", base.Strategy)
	}
	return newPlanSpace(
		sessionMode{wl: core.Workload{Model: cfg, Mode: model.Prompt, SeqLen: opts.PromptSeqLen}, classes: pre},
		sessionMode{wl: core.Workload{Model: cfg, Mode: model.Autoregressive}, classes: dec},
	), nil
}

// reference locates the base system's run topology — the surrogate's
// reference — among the axis's topologies.
func (sp planSpace) reference(t hw.Topology) (int, error) {
	if i := slices.Index(sp.topos, t); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("explore: %s is not a supported topology", t)
}

// grid enumerates the joint candidates in the odometer order every
// plan search shares (first class cycling fastest, so ties keep the
// earliest candidate and the paper's tree wins exact draws): candidate
// i binds union[a] to topos[grid.at(i)[a]].
func (sp planSpace) grid() axisGrid {
	sizes := make([]int, len(sp.union))
	for a := range sizes {
		sizes[a] = len(sp.topos)
	}
	return odometer(sizes...)
}

// plan binds every class on the axis to its digit's topology.
func (sp planSpace) plan(digits []int) collective.Plan {
	var p collective.Plan
	for a, c := range sp.union {
		p = p.With(c, sp.topos[digits[a]])
	}
	return p
}

// uniforms lists the candidates binding every class to one topology,
// in topology order: the uniform plans every plan search verifies.
// With the first class cycling fastest, topology t sits at t times the
// sum of the digits' place values.
func (sp planSpace) uniforms() []int {
	places, place := 0, 1
	for range sp.union {
		places += place
		place *= len(sp.topos)
	}
	out := make([]int, len(sp.topos))
	for t := range out {
		out[t] = t * places
	}
	return out
}

// phasePoint spells one phase of a joint plan as an evaluation point.
// As deployed, the whole plan rides in the phase's cache key, which is
// how a user runs it (and why the naive grid costs a simulation per
// phase and candidate). Phase-restricted, the phase binds only its own
// classes, a class the plan leaves unbound taking the zero topology,
// and a phase whose classes all share one topology collapses to the
// zero plan on that run topology, sharing cache entries with the
// uniform baselines and plain sweeps of that topology. The base
// system's own SyncPlan is overridden either way.
func phasePoint(base core.System, m sessionMode, p collective.Plan, deployed bool) evalpool.Point {
	sys := base
	sys.Options.SyncPlan = p
	if !deployed {
		t0, _ := p.Explicit(m.classes[0])
		var q collective.Plan
		same := true
		for _, c := range m.classes {
			t, _ := p.Explicit(c)
			q = q.With(c, t)
			same = same && t == t0
		}
		sys.Options.SyncPlan = q
		if same {
			sys.Options.SyncPlan = collective.Plan{}
			sys.HW.Topology = t0
		}
	}
	return evalpool.Point{System: sys, Workload: m.wl}
}

// points appends a joint plan's evaluation points, one per phase.
func (sp planSpace) points(buf []evalpool.Point, base core.System, p collective.Plan, deployed bool) []evalpool.Point {
	for _, m := range sp.modes {
		buf = append(buf, phasePoint(base, m, p, deployed))
	}
	return buf
}

// planSearch is a finished search over a plan space's joint grid.
type planSearch struct {
	planSpace
	cands axisGrid
	// predicted is each candidate's predicted cycles (nil when every
	// candidate was verified).
	predicted []float64
	// sel lists the verified candidates in verification order; exact[k]
	// evaluates sel[k].
	sel   []int
	exact []exactCost
	// best and uniform are the positions in sel of the winner and of
	// the best uniform plan, which binds every class to uniformTopo.
	best, uniform int
	uniformTopo   hw.Topology
}

// searchPlans runs the predict-then-verify core over sp's joint grid.
// With a fitted surrogate it ranks the grid by predicted cycles and
// verifies only the predicted top-K plus the uniform plans; with none
// it verifies every candidate. deployed picks the point spelling and
// what names the step in errors; the exact evaluations are billed to
// *fills.
func searchPlans(fills *int, what string, sp planSpace, base core.System, s *surrogate, topK int, deployed bool) (*planSearch, error) {
	ps := &planSearch{planSpace: sp, cands: sp.grid()}
	uniforms := sp.uniforms()
	if s == nil {
		ps.sel = indices(ps.cands.n)
	} else {
		ps.predicted = make([]float64, ps.cands.n)
		for i := range ps.predicted {
			ps.predicted[i] = s.predict(ps.cands.at(i)).Cycles
		}
		if topK <= 0 {
			topK = DefaultSessionTopK
		}
		ps.sel = verifySet(rankStable(ps.predicted), topK, uniforms)
	}
	var err error
	ps.exact, err = evalExact(fills, what, len(ps.sel), func(k int, buf []evalpool.Point) []evalpool.Point {
		return sp.points(buf, base, ps.candidate(k), deployed)
	})
	if err != nil {
		return nil, err
	}
	ps.best = winner(ps.sel, func(k int) float64 { return ps.exact[k].Cycles })
	at := make([]int, len(uniforms))
	for t, u := range uniforms {
		at[t] = slices.Index(ps.sel, u)
	}
	t := winner(uniforms, func(t int) float64 { return ps.exact[at[t]].Cycles })
	ps.uniform, ps.uniformTopo = at[t], sp.topos[t]
	return ps, nil
}

// candidate is the plan of the k-th verified candidate.
func (ps *planSearch) candidate(k int) collective.Plan {
	return ps.plan(ps.cands.at(ps.sel[k]))
}

// perClass lists a plan's choice per class, in class order.
func perClass(p collective.Plan, classes []collective.SyncClass) []ClassChoice {
	var out []ClassChoice
	for _, c := range classes {
		topo, _ := p.Explicit(c)
		out = append(out, ClassChoice{Class: c, Topology: topo})
	}
	return out
}

// AutotuneSession tunes the per-sync collective plan of a whole
// generation session — one prompt prefill plus one autoregressive
// decode step at the paper's sequence lengths — jointly over the full
// class × topology grid, for the base system's chip count and network.
//
// By default it runs the predict-then-verify search: one probe
// simulation per (class, topology) builds an additive per-class cost
// model (session cost of a candidate = per-phase baseline + the sum of
// its classes' measured deltas), every candidate in the joint grid is
// ranked by predicted cost, and only the top-K plus the four uniform
// sessions are verified exactly. The winner is the verified candidate
// with the fewest exact cycles — predictions only choose what to
// verify, never who wins — and on the pinned operating points the
// equivalence tests hold it identical to exhaustive enumeration at a
// fraction of the simulations (ExactSims vs GridSims on the result).
// Set the returned Plan on System.Options.SyncPlan to deploy it.
func AutotuneSession(base core.System, cfg model.Config, opts SessionOptions) (*SessionResult, error) {
	var fills int
	sp, err := sessionSpace(base, cfg, opts)
	if err != nil {
		return nil, err
	}
	ref, err := sp.reference(base.HW.Topology)
	if err != nil {
		return nil, err
	}
	var s *surrogate
	what := "session grid"
	if !opts.Exhaustive {
		if s, err = fitSurrogate(&fills, base, sp, ref); err != nil {
			return nil, err
		}
		what = "session verify"
	}
	ps, err := searchPlans(&fills, what, sp, base, s, opts.TopK, opts.Exhaustive)
	if err != nil {
		return nil, err
	}
	best := ps.exact[ps.best]
	res := &SessionResult{
		Plan:            ps.candidate(ps.best),
		Cycles:          best.Cycles,
		PredictedCycles: best.Cycles,
		PrefillReport:   best.reports[0],
		DecodeReport:    best.reports[1],
		BestUniform:     ps.uniformTopo,
		UniformCycles:   ps.exact[ps.uniform].Cycles,
		RankAccuracy:    1,
		Candidates:      ps.cands.n,
		GridSims:        2 * ps.cands.n,
	}
	res.PerClass = perClass(res.Plan, sp.union)
	res.Margin = res.UniformCycles / res.Cycles
	if s != nil {
		res.PredictedCycles = ps.predicted[ps.sel[ps.best]]
		var order []int
		order, res.RankAccuracy = rankVerified(ps.sel, ps.predicted, ps.exact)
		for _, k := range order {
			res.Verified = append(res.Verified, SessionCandidate{
				Plan:            ps.candidate(k),
				PredictedCycles: ps.predicted[ps.sel[k]],
				Cycles:          ps.exact[k].Cycles,
			})
		}
	}
	res.ExactSims = fills
	return res, nil
}
