package main

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/experiments"
	"mcudist/internal/interconnect"
	"mcudist/internal/resultstore"
)

// suiteGolden is the sha256 of the canonical rendering of every suite
// step's values, recorded when the benchmark was defined. Any pass, cold
// or warm, must reproduce it.
//
//go:embed testdata/suite.sha256
var suiteGolden string

// step is one cmd/paperrepro -only step: the experiments calls it
// renders, with its default arguments.
type step struct {
	name string
	run  func() ([]any, error)
}

// calls runs experiments functions in order and collects their values.
func calls(fs ...func() (any, error)) func() ([]any, error) {
	return func() ([]any, error) {
		out := make([]any, 0, len(fs))
		for _, f := range fs {
			v, err := f()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
}

func call[T any](f func() (T, error)) func() (any, error) {
	return func() (any, error) { return f() }
}

// suiteSteps mirrors cmd/paperrepro's step list and arguments.
var suiteSteps = []step{
	{"fig4a", calls(call(experiments.Fig4a))},
	{"fig4b", calls(call(experiments.Fig4b))},
	{"fig4c", calls(call(experiments.Fig4c))},
	{"fig5a", calls(call(experiments.Fig5a))},
	{"fig5b", calls(call(experiments.Fig5b))},
	{"fig5c", calls(call(experiments.Fig5c))},
	{"fig6", calls(call(experiments.Fig6))},
	{"table1", calls(call(experiments.Table1))},
	{"headline", calls(call(experiments.RunHeadline))},
	{"ablations", calls(
		call(experiments.AblationReduceTopology),
		call(experiments.AblationGroupSize),
		call(experiments.AblationReducePrecision),
		call(experiments.AblationPrefetch),
		call(experiments.AblationActivationSpill),
		call(experiments.AblationLinkBandwidth),
		call(experiments.AblationDegradedLink),
		call(experiments.AblationStraggler),
	)},
	{"topology", calls(call(experiments.AblationTopologyShapes))},
	{"network", calls(func() (any, error) { return experiments.AblationNetworkBackhaul(4, 10) })},
	{"syncplan", calls(call(experiments.AblationSyncPlan))},
	{"session", calls(call(experiments.SessionAutotune))},
	{"extensions", calls(
		call(experiments.ExtensionFullGrid),
		call(experiments.ExtensionSeqLenStudy),
		call(experiments.ExtensionContextStudy),
		call(experiments.ExtensionLMHeadStudy),
		call(experiments.ExtensionGQAStudy),
		call(experiments.ExtensionBatchingStudy),
		call(experiments.ExtensionCollectiveStudy),
	)},
	{"fleet", calls(call(experiments.FleetSaturation), call(experiments.FleetBatchingAblation))},
	{"memtier", calls(call(experiments.MemTierStudy), call(experiments.MemTilingAutotune))},
	{"resilience", calls(call(experiments.ResilienceMargin))},
}

// repro is the "regenerate the paper" job: passes of the 18 suite
// steps, each on an emptied memo and schedule cache. Cold passes attach
// a fresh empty result store, so the store sees its write path; warm
// passes reopen one store filled at set-up with the suite's entries
// and about eight times as many seeded sweep points, so the read path
// (open-scan plus Load) does the work and perfsim none.
type repro struct {
	c    *config
	warm bool

	dir    string // the pass's store directory
	store  *resultstore.Store
	passes int

	// The pass that just ran: its step values, error and exact sims.
	values [][]any
	err    error
	sims   uint64

	// Across passes: the search bill every pass must repeat, the last
	// pass's store size, and failed timed Loads and Appends.
	searchSims       int
	entries, skipped int
	storeBytes       int64
	storeMisses      int
	fill             []evalpool.Point // warm: points set-up added to the store
	appendPts        []evalpool.Point // cold: reports appended to a scratch store
	appendReps       []*core.Report
}

func (r *repro) tailPct() float64 { return 75 }

func (r *repro) setup() error {
	evalpool.ResetCache()
	interconnect.ResetScheduleCache()
	r.searchSims = -1
	if !r.warm {
		return nil
	}
	r.dir = filepath.Join(r.c.dir, "warm-store")
	store, err := resultstore.Open(r.dir)
	if err != nil {
		return err
	}
	defer store.Close()
	evalpool.SetStore(store)
	defer evalpool.SetStore(nil)
	for _, st := range suiteSteps {
		if _, err := st.run(); err != nil {
			return fmt.Errorf("fill %s: %w", st.name, err)
		}
	}
	r.fill = sweepPoints(r.c.seed, r.c.fillPoints)
	// Fill in slices with the memo dropped between them, so set-up
	// holds no more reports in memory than a sweep rep does.
	for lo := 0; lo < len(r.fill); lo += 256 {
		evalpool.ResetCache()
		if _, err := evalpool.Map(r.fill[lo:min(lo+256, len(r.fill))]); err != nil {
			return fmt.Errorf("fill sweep points: %w", err)
		}
	}
	return nil
}

func (r *repro) teardown() {
	r.closeStore()
	if r.c.dir != "" {
		os.RemoveAll(filepath.Join(r.c.dir, "warm-store"))
		os.RemoveAll(filepath.Join(r.c.dir, "cold-store"))
		os.RemoveAll(filepath.Join(r.c.dir, "append-scratch"))
	}
}

func (r *repro) closeStore() {
	evalpool.SetStore(nil)
	if r.store != nil {
		r.store.Close()
		r.store = nil
	}
}

func (r *repro) beforeRep() {
	evalpool.ResetCache()
	interconnect.ResetScheduleCache()
	if !r.warm {
		r.dir = filepath.Join(r.c.dir, "cold-store")
		os.RemoveAll(r.dir)
	}
}

// rep runs one pass: open the store, then every step. A traced pass
// then times the store layer on its own, outside the pass's time.
func (r *repro) rep(rec *recorder) []time.Duration {
	op := r.passes
	r.passes++
	r.values, r.err = r.values[:0], nil
	t0 := time.Now()
	root := rec.begin("pass", -1, op, 0)
	sp := rec.begin("resultstore.open", root, op, 0)
	store, err := resultstore.Open(r.dir)
	rec.end(sp)
	if err != nil {
		r.err = err
		rec.end(root)
		return []time.Duration{time.Since(t0)}
	}
	r.store = store
	evalpool.SetStore(store)
	sims0 := evalpool.GetStats().Simulations
	for _, st := range suiteSteps {
		sp := rec.begin("step."+st.name, root, op, 0)
		v, err := st.run()
		rec.end(sp)
		if err != nil {
			r.err = fmt.Errorf("%s: %w", st.name, err)
			break
		}
		r.values = append(r.values, v)
	}
	r.sims = evalpool.GetStats().Simulations - sims0
	lat := time.Since(t0)
	rec.end(root)
	if rec != nil && r.err == nil {
		r.timeStore(rec, op)
	}
	return []time.Duration{lat}
}

// timeStore times the store layer directly: Load of the points set-up
// stored (warm) or Append of seeded reports into a scratch store
// (cold).
func (r *repro) timeStore(rec *recorder, op int) {
	if r.warm {
		for _, pt := range r.fill[:min(len(r.fill), r.c.storePoints)] {
			sp := rec.begin("resultstore.load", -1, op, 0)
			_, ok := r.store.Load(pt.System, pt.Workload)
			rec.end(sp)
			if !ok {
				r.storeMisses++
			}
		}
		return
	}
	if r.appendReps == nil {
		// The reports to append are computed once, off the clock and
		// with no store attached.
		evalpool.SetStore(nil)
		r.appendPts = sweepPoints(r.c.seed, r.c.storePoints)
		reps, err := evalpool.Map(r.appendPts)
		evalpool.SetStore(r.store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro-cold: timing Append:", err)
			r.storeMisses++
			return
		}
		r.appendReps = reps
	}
	dir := filepath.Join(r.c.dir, "append-scratch")
	os.RemoveAll(dir)
	scratch, err := resultstore.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro-cold: timing Append:", err)
		r.storeMisses++
		return
	}
	defer scratch.Close()
	for i, pt := range r.appendPts {
		sp := rec.begin("resultstore.append", -1, op, 0)
		err := scratch.Append(pt.System, pt.Workload, r.appendReps[i])
		rec.end(sp)
		if err != nil {
			r.storeMisses++
		}
	}
}

// check verifies the pass: no error, the golden hash, the search bill
// of every earlier pass, and (warm) not a single exact simulation.
func (r *repro) check() int {
	defer r.closeStore()
	if r.store != nil {
		r.entries, r.skipped, r.storeBytes = r.store.Len(), r.store.Skipped(), r.store.SizeBytes()
	}
	if r.err != nil {
		fmt.Fprintln(os.Stderr, r.c.workload+":", r.err)
		return 1
	}
	failed := false
	if got, want := suiteHash(r.values), strings.TrimSpace(suiteGolden); got != want {
		fmt.Fprintf(os.Stderr, "%s: suite hash %s, want %s\n", r.c.workload, got, want)
		failed = true
	}
	search := searchSims(r.values)
	if r.searchSims >= 0 && search != r.searchSims {
		fmt.Fprintf(os.Stderr, "%s: search bill %d exact sims, earlier pass %d\n", r.c.workload, search, r.searchSims)
		failed = true
	}
	r.searchSims = search
	if r.warm && r.sims != 0 {
		fmt.Fprintf(os.Stderr, "repro-warm: pass ran %d exact simulations, want 0\n", r.sims)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

func (r *repro) finish(m metrics, lt layerTimes) int {
	m["explore.exact_sims"] = float64(r.searchSims)
	m["resultstore.entries"] = float64(r.entries)
	m["resultstore.mb"] = float64(r.storeBytes) / 1e6
	m["resultstore.skipped"] = float64(r.skipped)
	if r.storeMisses > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d timed store calls failed\n", r.c.workload, r.storeMisses)
	}
	return r.storeMisses
}

// suiteHash is the sha256 of the canonical rendering of every step's
// values: each value printed on its own with %+v, which renders floats
// in shortest round-trip form and dereferences only top-level pointers.
func suiteHash(values [][]any) string {
	h := sha256.New()
	for i, vs := range values {
		fmt.Fprintf(h, "%s\n", suiteSteps[i].name)
		for _, v := range vs {
			fmt.Fprintf(h, "%+v\n", v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// searchSims sums the exact-evaluation bills of the pass's searches:
// the session, tiling and resilience studies.
func searchSims(values [][]any) int {
	n := 0
	for _, vs := range values {
		for _, v := range vs {
			switch rows := v.(type) {
			case []experiments.SessionRow:
				for _, r := range rows {
					n += r.ExactSims
				}
			case []experiments.MemTilingRow:
				for _, r := range rows {
					n += r.ExactSims
				}
			case []experiments.ResilienceRow:
				for _, r := range rows {
					n += r.ExactSims
				}
			}
		}
	}
	return n
}

// paperLogErr is the simulator's error against the paper's own
// numbers: the mean |ln(measured/paper)| over the headline rows.
func paperLogErr(h *experiments.Headline) float64 {
	p := experiments.PaperHeadline()
	pairs := [][2]float64{
		{h.ARSpeedup8, p.ARSpeedup8},
		{h.AREnergy8MJ, p.AREnergy8MJ},
		{h.ARLatency8MS, p.ARLatency8MS},
		{h.AREDPImprovement, p.AREDPImprovement},
		{h.AREnergyRatio, p.AREnergyRatio},
		{h.PromptSpeedup8, p.PromptSpeedup8},
		{h.MobileBERTSpeedup4, p.MobileBERTSpeedup4},
		{h.ScaledSpeedup64, p.ScaledSpeedup64},
		{h.ScaledEnergyReduction64, p.ScaledEnergyReduction64},
		{float64(h.SyncsPerBlock), float64(p.SyncsPerBlock)},
		{h.ReplicationFactor, p.ReplicationFactor},
	}
	sum := 0.0
	for _, pr := range pairs {
		sum += math.Abs(math.Log(pr[0] / pr[1]))
	}
	return sum / float64(len(pairs))
}
