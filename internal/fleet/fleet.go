// Package fleet is the fleet-serving simulator: an event-driven
// scheduler that admits a stream of inference requests (seeded Poisson
// or trace-driven arrivals, mixed prompt lengths and decode budgets)
// onto one or more chip groups and continuously batches decode steps
// across sessions, reporting serving metrics — p50/p99 request
// latency, tokens per second, queue depth over time, chip-group
// utilization, energy per request — instead of cycles per run.
//
// Every scheduled step is priced by a step-cost oracle: a prefill of
// length L is the (System, Workload{Prompt, L}) point and a decode
// micro-batch of width B at context C is (System, Workload{AR, C,
// Batch: B}), both evaluated through the evalpool cache tiers
// (in-process memo → persistent resultstore → exact simulation).
// Context lengths are bucketed, so a fleet run prices only as many
// exact simulations as there are distinct step shapes — tens, not
// millions — and a warm persistent store prices a million-request run
// with zero exact simulations.
//
// The scheduler itself is strictly serial on the eventsim engine
// (time in seconds), so fleet output is byte-identical across worker
// counts and runs at a fixed seed: concurrency only ever lives in the
// oracle pool, whose results are byte-identical by evalpool's own
// guarantee.
//
// Before the replay starts, the run lays out the shape rectangle the
// trace can touch (every distinct prompt length at batch 1, every
// context bucket a decoding session can cross at every micro-batch
// width up to the cap) as one dense price table per system, which the
// event loop indexes directly by slot. A dry pre-pricing pass fills
// the table through evalpool workers-wide, so a cold fleet run pays
// its exact simulations in parallel instead of one at a time inside
// the event loop. Options.NoPrePrice forces the lazy reference path,
// which fills each slot on first use and which the pass is pinned
// byte-identical to.
//
// A warm replay does linear work and allocates no object per request
// or per session: in-flight sessions live by value in their group's
// batch, queued requests are indices into the trace, a trace already
// in arrival order is read in place, and the latency percentiles are
// selected in place rather than sorted.
package fleet

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/eventsim"
	"mcudist/internal/explore"
	"mcudist/internal/model"
	"mcudist/internal/resilience"
)

// Request is one inference request: a prompt to prefill and a decode
// budget to generate.
type Request struct {
	// ID is the request's index in the trace.
	ID int
	// ArrivalSeconds is the request's arrival time on the fleet clock.
	ArrivalSeconds float64
	// PromptLen is the prompt length in tokens (the prefill shape).
	PromptLen int
	// DecodeTokens is how many tokens the session generates in decode
	// steps after the prefill produced its first token.
	DecodeTokens int
}

// Trace is an arrival schedule: requests sorted by arrival time.
type Trace struct {
	Requests []Request
}

// TraceOptions parameterizes PoissonTrace. The zero value of each
// field selects the default noted on it.
type TraceOptions struct {
	// Requests is the trace length (default 1000).
	Requests int
	// RatePerSecond is the mean Poisson arrival rate (default 1).
	RatePerSecond float64
	// Seed seeds the deterministic generator; equal seeds yield
	// byte-identical traces (default 1).
	Seed uint64
	// PromptLens are the prompt-length choices, picked uniformly
	// (default 16, 32, 64, 128).
	PromptLens []int
	// MinDecode/MaxDecode bound the uniform decode budget
	// (defaults 4 and 32).
	MinDecode, MaxDecode int
}

// PoissonTrace generates a seeded Poisson arrival trace with mixed
// prompt lengths and decode budgets. The generator is a splitmix64
// stream owned by the trace, so the result depends only on the
// options — never on process scheduling or math/rand global state.
func PoissonTrace(opts TraceOptions) Trace {
	n := opts.Requests
	if n <= 0 {
		n = 1000
	}
	rate := opts.RatePerSecond
	if rate <= 0 {
		rate = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	prompts := opts.PromptLens
	if len(prompts) == 0 {
		prompts = []int{16, 32, 64, 128}
	}
	minD, maxD := opts.MinDecode, opts.MaxDecode
	if minD <= 0 {
		minD = 4
	}
	if maxD < minD {
		maxD = 32
		if maxD < minD {
			maxD = minD
		}
	}
	r := rng{state: seed}
	tr := Trace{Requests: make([]Request, n)}
	at := 0.0
	for i := 0; i < n; i++ {
		at += r.exp() / rate
		tr.Requests[i] = Request{
			ID:             i,
			ArrivalSeconds: at,
			PromptLen:      prompts[r.intn(len(prompts))],
			DecodeTokens:   minD + r.intn(maxD-minD+1),
		}
	}
	return tr
}

// Options configures one fleet run.
type Options struct {
	// Trace is the request stream (required).
	Trace Trace
	// System is the per-group platform: hardware, chip count, strategy,
	// and planner options. Every group is identical.
	System core.System
	// Model is the served model.
	Model model.Config
	// Groups is the number of independent chip groups requests are
	// routed across (default 1). Arrivals go to the group with the
	// fewest outstanding requests, lowest index first.
	Groups int
	// MaxBatch caps the decode micro-batch width per group (default 8;
	// 1 disables continuous batching — the sequential baseline).
	MaxBatch int
	// ContextBucket rounds decode-step contexts up to a multiple of
	// this many tokens for pricing (default 32). Larger buckets mean
	// fewer distinct step shapes (fewer exact simulations) at the cost
	// of coarser step prices; a step is never priced below its true
	// context. Prompts are priced at their exact length — a trace's
	// distinct prompt lengths bound those shapes already.
	ContextBucket int
	// NoPrePrice disables the parallel shape pre-pricing pass, pricing
	// every step shape lazily inside the strictly-serial event loop —
	// the reference path pre-pricing is pinned byte-identical to.
	NoPrePrice bool
	// Autotune runs explore.AutotuneSession once on the group system
	// and adopts the winning per-sync collective plan for every group,
	// so fleet throughput inherits the per-sync plan wins.
	Autotune bool
	// AutotuneTopK is the session autotuner's pruning knob (0 =
	// explore's default).
	AutotuneTopK int
	// Fault, when non-nil, injects a mid-trace hardware fault into one
	// chip group: at AtSeconds the group's platform is rewritten by
	// resilience.Degrade and every later step on it is priced on the
	// degraded system. The other groups keep serving pristine.
	Fault *FaultPlan
}

// FaultPlan is a mid-trace fault injection: at AtSeconds on the fleet
// clock, Group's system degrades by Faults. The step in flight on the
// group (if any) completes at its already-committed price; every step
// scheduled after the fault is priced on the degraded system. With
// Replan set, the fleet re-runs the session autotuner on the degraded
// system at fault time and the group serves the re-planned collective
// plan; otherwise it keeps serving the stale pre-fault plan on the
// degraded wiring (failing the run if that plan became infeasible).
type FaultPlan struct {
	// AtSeconds is the fault time on the fleet clock (>= 0).
	AtSeconds float64
	// Group is the chip group that degrades.
	Group int
	// Faults is the non-empty fault set applied via resilience.Perturb.
	Faults []resilience.Fault
	// Replan re-tunes the collective plan for the degraded system.
	Replan bool
	// ReplanTopK is the re-planning autotuner's pruning knob (0 =
	// explore's default).
	ReplanTopK int
}

// QueueSample is one point of the queue-depth-over-time series.
type QueueSample struct {
	AtSeconds float64
	// Depth is the number of requests in the system (arrived, not yet
	// completed: waiting for prefill or actively decoding).
	Depth int
}

// Metrics are the serving metrics of one fleet run. Every field is a
// pure function of (Trace, System, Model, scheduler options): cold and
// warm stores, and any worker count, produce byte-identical Metrics.
type Metrics struct {
	// Requests / Completed count the trace and its completions (equal
	// unless the trace is empty).
	Requests  int
	Completed int
	// SimSeconds is the fleet makespan: the time the last request
	// completed (or the last arrival, if later).
	SimSeconds float64
	// Request latency (arrival → last token) percentiles and mean, by
	// nearest rank over completed requests.
	P50LatencySeconds  float64
	P99LatencySeconds  float64
	MeanLatencySeconds float64
	// Time to first token (arrival → prefill complete) percentiles.
	P50TTFTSeconds float64
	P99TTFTSeconds float64
	// TokensPerSecond is decoded tokens per simulated second over the
	// makespan (prefill tokens are not counted as output).
	TokensPerSecond float64
	// RequestsPerSecond is completed requests over the makespan — the
	// achieved throughput the saturation sweep compares to the offered
	// rate.
	RequestsPerSecond float64
	// Energy: the analytical model's joules summed over every
	// scheduled step, and the per-request quotient.
	TotalEnergyJoules      float64
	EnergyPerRequestJoules float64
	// Queue depth (requests in system): time-weighted mean over the
	// makespan, the maximum, and an adaptively strided series.
	MeanQueueDepth float64
	MaxQueueDepth  int
	QueueOverTime  []QueueSample
	// GroupUtilization is busy-seconds / makespan per chip group.
	GroupUtilization []float64
	// MeanBatch is the mean decode micro-batch width over decode
	// steps; PrefillSteps/DecodeSteps count scheduled steps.
	MeanBatch    float64
	PrefillSteps int
	DecodeSteps  int
}

// Result is one fleet run: deterministic serving metrics plus the
// run's oracle accounting and the adopted plan.
type Result struct {
	Metrics Metrics
	// DistinctShapes is how many distinct step shapes the run priced —
	// the speculative pre-pricing rectangle united with anything the
	// replay priced lazily — and the upper bound on exact simulations
	// a cold run pays.
	DistinctShapes int
	// ExactSims is how many exact core.Run simulations this run
	// actually executed (the process-wide evalpool delta): positive on
	// a cold store, zero on a warm one. Evaluations is the
	// storage-independent memory-miss count.
	ExactSims   uint64
	Evaluations uint64
	// Plan is the adopted per-sync collective plan (zero unless
	// Autotune) and AutotuneMargin its win over the best uniform
	// topology.
	Plan           collective.Plan
	AutotuneMargin float64
	// FaultApplied reports whether the configured FaultPlan fired
	// before the trace drained (false when the fleet finished first).
	FaultApplied bool
	// PostFaultChips is the degraded group's chip count after the
	// fault; PostFaultPlan/PostFaultMargin record the re-planned
	// collective plan and its margin when FaultPlan.Replan is set.
	PostFaultChips  int
	PostFaultPlan   collective.Plan
	PostFaultMargin float64
}

// session is one prefilled request's decoding state. Sessions live by
// value in their group's active batch, so admitting one allocates
// nothing.
type session struct {
	arrival   float64 // the request's arrival time
	ctx       int     // current context length in tokens
	remaining int     // decode tokens still to generate
}

// shape is one step shape: a prefill of seqLen prompt tokens at batch
// 1, or a decode micro-batch of width batch at bucketed context seqLen.
type shape struct {
	mode   model.Mode
	seqLen int
	batch  int
}

// stepCost is one priced step shape; ok marks a filled table slot.
type stepCost struct {
	seconds float64
	joules  float64
	ok      bool
}

// priceTable is one system's step prices, dense over the fleet's shape
// rectangle: costs[i] prices fleet.shapes[i] on sys.
type priceTable struct {
	sys   core.System
	costs []stepCost
}

// filled counts the table's priced slots.
func (t *priceTable) filled() int {
	n := 0
	for _, c := range t.costs {
		if c.ok {
			n++
		}
	}
	return n
}

// group is one chip group's scheduler state.
type group struct {
	id int
	// promptQ[head:] are the indices (into fleet.reqs) of the requests
	// waiting for prefill, FIFO. When the backing array is full and at
	// least half of it is consumed, arrive slides the queue down to
	// the front instead of growing it, so the array stays within twice
	// the queue's peak depth and a lightly loaded group never
	// reallocates.
	promptQ     []int
	head        int
	active      []session // prefilled sessions, admission order
	prices      *priceTable
	busy        bool
	busySeconds float64
	// The in-flight step (at most one per group, guarded by busy) is
	// parked in step* and consumed by the reusable finish callback, so
	// scheduling a step allocates no closure.
	stepReq   int // the prefilling request's index; -1 for a decode step
	stepWidth int
	stepEnd   float64
	finish    func()
}

func (g *group) outstanding() int { return len(g.promptQ) - g.head + len(g.active) }

// fleet is one run's full state.
type fleet struct {
	opts   Options
	eng    *eventsim.Engine
	groups []*group
	// The shape rectangle (see speculativeShapes) lays every step shape
	// the trace can touch out in one slice: first one slot per distinct
	// prompt length (promptSlot maps a length to its slot), then the
	// decode shapes bucket-major, so the decode step at bucketed context
	// c and width w sits at len(promptSlot) +
	// (c-minBucket)/ctxStep*batchCap + w-1. Each system prices the
	// rectangle in its own dense table.
	shapes     []shape
	promptSlot map[int]int
	minBucket  int
	ctxStep    int
	batchCap   int
	pristine   priceTable
	// Fault state: degraded is nil until the FaultPlan fires, then the
	// table the degraded group prices its later steps from (degraded
	// shapes can never share a price with pristine ones — the systems
	// differ).
	degraded        *priceTable
	postFaultChips  int
	postFaultPlan   collective.Plan
	postFaultMargin float64
	// Arrival feed: reqs is sorted by arrival time and fed into the
	// event queue one request at a time by the reusable arriveNext
	// callback. Scheduling arrivals lazily keeps the event heap a few
	// entries deep (next arrival + one in-flight step per group)
	// instead of pre-loading every request, and avoids allocating a
	// Request-capturing closure per arrival.
	reqs       []Request
	nextReq    int
	arriveNext func()

	// depth accounting (requests in system, all groups)
	depth       int
	maxDepth    int
	lastDepthAt float64
	depthArea   float64
	samples     []QueueSample
	stride      int
	sinceSample int

	// latencies and ttfts are owned by the run: metrics reorders them.
	latencies []float64
	ttfts     []float64

	decodeBudget  int64 // the trace's decode tokens, summed up front
	decodedTokens int64
	totalEnergy   float64
	prefillSteps  int
	decodeSteps   int
	batchSum      int64
	completed     int
	err           error
}

const maxQueueSamples = 512

// byArrival orders requests by arrival time.
func byArrival(a, b Request) int { return cmp.Compare(a.ArrivalSeconds, b.ArrivalSeconds) }

// Run simulates the trace on the fleet and returns its metrics.
func Run(opts Options) (*Result, error) {
	if len(opts.Trace.Requests) == 0 {
		return nil, fmt.Errorf("fleet: empty trace")
	}
	if opts.System.Chips <= 0 {
		return nil, fmt.Errorf("fleet: chip count %d must be positive", opts.System.Chips)
	}
	if opts.Model.L == 0 {
		return nil, fmt.Errorf("fleet: no model configured")
	}
	if opts.Groups < 0 {
		return nil, fmt.Errorf("fleet: group count %d must be non-negative", opts.Groups)
	}
	groups := max(opts.Groups, 1)
	if opts.MaxBatch < 0 {
		return nil, fmt.Errorf("fleet: max batch %d must be non-negative", opts.MaxBatch)
	}
	if opts.ContextBucket < 0 {
		return nil, fmt.Errorf("fleet: context bucket %d must be non-negative", opts.ContextBucket)
	}
	if fp := opts.Fault; fp != nil {
		if fp.AtSeconds < 0 || math.IsNaN(fp.AtSeconds) || math.IsInf(fp.AtSeconds, 0) {
			return nil, fmt.Errorf("fleet: bad fault time %v", fp.AtSeconds)
		}
		if fp.Group < 0 || fp.Group >= groups {
			return nil, fmt.Errorf("fleet: fault group %d out of range [0,%d)", fp.Group, groups)
		}
		if len(fp.Faults) == 0 {
			return nil, fmt.Errorf("fleet: fault plan without faults")
		}
	}
	var budget int64
	for i, r := range opts.Trace.Requests {
		if r.PromptLen <= 0 {
			return nil, fmt.Errorf("fleet: request %d: prompt length %d must be positive", i, r.PromptLen)
		}
		if r.DecodeTokens < 0 {
			return nil, fmt.Errorf("fleet: request %d: decode budget %d must be non-negative", i, r.DecodeTokens)
		}
		if r.ArrivalSeconds < 0 || math.IsNaN(r.ArrivalSeconds) || math.IsInf(r.ArrivalSeconds, 0) {
			return nil, fmt.Errorf("fleet: request %d: bad arrival time %v", i, r.ArrivalSeconds)
		}
		budget += int64(r.DecodeTokens)
	}

	simsBefore := evalpool.Simulations()
	evalsBefore := evalpool.Evaluations()

	res := &Result{}
	sys := opts.System
	if opts.Autotune {
		tuned, err := explore.AutotuneSession(sys, opts.Model,
			explore.SessionOptions{TopK: opts.AutotuneTopK})
		if err != nil {
			return nil, fmt.Errorf("fleet: autotune: %w", err)
		}
		sys.Options.SyncPlan = tuned.Plan
		res.Plan = tuned.Plan
		res.AutotuneMargin = tuned.Margin
	}

	// Arrivals are fed in arrival order, equal times in trace order. A
	// trace already in that order is read in place; any other is
	// stably sorted into a copy, so the caller's trace is never
	// modified.
	reqs := opts.Trace.Requests
	if !slices.IsSortedFunc(reqs, byArrival) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, byArrival)
	}
	f := &fleet{
		opts:         opts,
		eng:          eventsim.NewEngine(),
		ctxStep:      cmp.Or(opts.ContextBucket, 32),
		batchCap:     cmp.Or(opts.MaxBatch, 8),
		reqs:         reqs,
		stride:       1,
		latencies:    make([]float64, 0, len(reqs)),
		ttfts:        make([]float64, 0, len(reqs)),
		decodeBudget: budget,
	}
	f.speculativeShapes()
	f.pristine = priceTable{sys: sys, costs: make([]stepCost, len(f.shapes))}
	if opts.Fault != nil {
		f.eng.At(opts.Fault.AtSeconds, f.applyFault)
	}
	for i := 0; i < groups; i++ {
		g := &group{id: i, prices: &f.pristine}
		g.finish = func() {
			if r := g.stepReq; r >= 0 {
				f.finishPrefill(g, r, g.stepEnd)
			} else {
				f.finishDecode(g, g.stepWidth, g.stepEnd)
			}
		}
		f.groups = append(f.groups, g)
	}

	// Only the next arrival sits in the event queue, and delivering it
	// schedules the one after. The next arrival is scheduled before the
	// delivered request is processed so simultaneous arrivals still run
	// in trace order.
	f.arriveNext = func() {
		i := f.nextReq
		f.nextReq++
		if f.nextReq < len(f.reqs) {
			f.eng.At(f.reqs[f.nextReq].ArrivalSeconds, f.arriveNext)
		}
		f.arrive(i)
	}
	f.eng.At(reqs[0].ArrivalSeconds, f.arriveNext)
	if !opts.NoPrePrice {
		f.prePrice()
	}
	end := f.eng.Run()
	if f.err != nil {
		return nil, f.err
	}
	if opts.Fault != nil && end > f.lastDepthAt {
		// The fault event outlived the trace: the makespan is the last
		// arrival or completion, not the fault time.
		end = f.lastDepthAt
	}
	if err := f.conserved(end); err != nil {
		return nil, err
	}

	res.Metrics = f.metrics(end)
	res.DistinctShapes = f.pristine.filled()
	res.ExactSims = evalpool.Simulations() - simsBefore
	res.Evaluations = evalpool.Evaluations() - evalsBefore
	if f.degraded != nil {
		res.DistinctShapes += f.degraded.filled()
		res.FaultApplied = true
		res.PostFaultChips = f.postFaultChips
		res.PostFaultPlan = f.postFaultPlan
		res.PostFaultMargin = f.postFaultMargin
	}
	return res, nil
}

// conserved checks the run's conservation invariants at the makespan
// end: every request completed and none is left in the system, every
// decode budget was generated exactly, and no group was busy longer
// than the makespan. A violation is a scheduler bug, reported as the
// run's error.
func (f *fleet) conserved(end float64) error {
	if f.completed != len(f.reqs) || f.depth != 0 {
		return fmt.Errorf("fleet: conservation: %d of %d requests completed, %d left in the system",
			f.completed, len(f.reqs), f.depth)
	}
	if f.decodedTokens != f.decodeBudget {
		return fmt.Errorf("fleet: conservation: decoded %d tokens, the trace budgets %d",
			f.decodedTokens, f.decodeBudget)
	}
	for _, g := range f.groups {
		if g.busySeconds > end {
			return fmt.Errorf("fleet: conservation: group %d busy %gs of a %gs makespan",
				g.id, g.busySeconds, end)
		}
	}
	return nil
}

// arrive routes request i to the least-loaded group and kicks its
// scheduler.
func (f *fleet) arrive(i int) {
	if f.err != nil {
		return
	}
	now := f.eng.Now()
	best := f.groups[0]
	for _, g := range f.groups[1:] {
		if g.outstanding() < best.outstanding() {
			best = g
		}
	}
	if q := best.promptQ; len(q) == cap(q) && best.head >= len(q)/2 {
		best.promptQ, best.head = q[:copy(q, q[best.head:])], 0
	}
	best.promptQ = append(best.promptQ, i)
	f.noteDepth(now, +1)
	f.start(best, now)
}

// bucket rounds a decode context up to the pricing bucket.
func (f *fleet) bucket(n int) int {
	b := f.ctxStep
	if b == 1 || n%b == 0 {
		return n
	}
	return (n/b + 1) * b
}

// price returns the cost of the step shape in slot i of the shape
// rectangle on group g: a direct index into the group's price table
// (the degraded system's, once the FaultPlan has hit the group),
// pricing the slot through the oracle tiers on its first use.
func (f *fleet) price(g *group, i int) (stepCost, error) {
	t := g.prices
	if c := t.costs[i]; c.ok {
		return c, nil
	}
	k := f.shapes[i]
	c, err := f.evaluate(t.sys, k)
	if err != nil {
		return stepCost{}, fmt.Errorf("fleet: price %s seq=%d batch=%d: %w", k.mode, k.seqLen, k.batch, err)
	}
	t.costs[i] = c
	return c, nil
}

// evaluate prices one step shape on sys through evalpool.
func (f *fleet) evaluate(sys core.System, k shape) (stepCost, error) {
	rep, err := evalpool.Run(sys, core.Workload{Model: f.opts.Model, Mode: k.mode, SeqLen: k.seqLen, Batch: k.batch})
	if err != nil {
		return stepCost{}, err
	}
	return stepCost{seconds: rep.Seconds, joules: rep.Energy.Total(), ok: true}, nil
}

// applyFault is the FaultPlan event: it degrades the target group's
// system via resilience.Degrade (optionally re-tuning the collective
// plan on the degraded wiring) and points the group at a fresh price
// table for the degraded system. The step in flight keeps its
// committed finish time and price.
func (f *fleet) applyFault() {
	if f.err != nil {
		return
	}
	// After the trace drains there is nothing left to serve degraded:
	// the fault is a no-op and the run reports FaultApplied=false.
	if f.nextReq >= len(f.reqs) && f.depth == 0 {
		return
	}
	fp := f.opts.Fault
	deg, _, err := resilience.Degrade(f.pristine.sys, f.opts.Model, fp.Faults...)
	if err != nil {
		f.err = fmt.Errorf("fleet: fault at %gs: %w", fp.AtSeconds, err)
		return
	}
	if fp.Replan {
		tuned, err := explore.AutotuneSession(deg, f.opts.Model,
			explore.SessionOptions{TopK: fp.ReplanTopK})
		if err != nil {
			f.err = fmt.Errorf("fleet: fault at %gs: replan: %w", fp.AtSeconds, err)
			return
		}
		deg.Options.SyncPlan = tuned.Plan
		f.postFaultPlan = tuned.Plan
		f.postFaultMargin = tuned.Margin
	}
	f.degraded = &priceTable{sys: deg, costs: make([]stepCost, len(f.shapes))}
	f.groups[fp.Group].prices = f.degraded
	f.postFaultChips = deg.Chips
}

// speculativeShapes lays out the shape rectangle: every step shape the
// trace can touch — each distinct prompt length at batch 1 and, when
// any request decodes, every pricing bucket in the context range a
// decoding session can cross at every micro-batch width up to the
// cap. The rectangle over-covers what the replay actually prices (a
// decode step's bucketed context is a bucket multiple between the
// smallest decoding prompt's bucket and the bucket of the longest
// session's final context, and its width never exceeds the cap), so
// every step the replay schedules has a slot, and it is a pure
// function of (trace, scheduler options): cold and warm runs of the
// same options price the same set, so a warm store still replays with
// zero exact simulations.
func (f *fleet) speculativeShapes() {
	f.promptSlot = make(map[int]int)
	minCtx, maxCtx := 0, 0
	decode := false
	for i := range f.reqs {
		r := &f.reqs[i]
		if _, seen := f.promptSlot[r.PromptLen]; !seen {
			f.promptSlot[r.PromptLen] = len(f.shapes)
			f.shapes = append(f.shapes, shape{mode: model.Prompt, seqLen: r.PromptLen, batch: 1})
		}
		if r.DecodeTokens > 0 {
			last := r.PromptLen + r.DecodeTokens - 1
			if !decode || r.PromptLen < minCtx {
				minCtx = r.PromptLen
			}
			if !decode || last > maxCtx {
				maxCtx = last
			}
			decode = true
		}
	}
	if decode {
		f.minBucket = f.bucket(minCtx)
		for ctx := f.minBucket; ctx <= f.bucket(maxCtx); ctx += f.ctxStep {
			for width := 1; width <= f.batchCap; width++ {
				f.shapes = append(f.shapes, shape{mode: model.Autoregressive, seqLen: ctx, batch: width})
			}
		}
	}
}

// decodeSlot is the rectangle slot of a decode step of the given width
// whose widest context is ctx tokens.
func (f *fleet) decodeSlot(ctx, width int) int {
	return len(f.promptSlot) + (f.bucket(ctx)-f.minBucket)/f.ctxStep*f.batchCap + width - 1
}

// prePrice fills the pristine table through evalpool with the pool's
// worker width, so the serial replay runs as pure table hits. A shape
// that fails to evaluate is left unfilled, not fatal: the replay may
// never need it, and if it does, the lazy path repeats the error and
// fails the run exactly like the reference path. Prices are evalpool
// results either way, so metrics are byte-identical to the lazy path.
func (f *fleet) prePrice() {
	costs := f.pristine.costs
	price := func(i int) {
		costs[i], _ = f.evaluate(f.pristine.sys, f.shapes[i])
	}
	if workers := evalpool.Default().Workers(); workers > 1 && len(costs) > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		if workers > len(costs) {
			workers = len(costs)
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(costs) {
						return
					}
					price(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range costs {
			price(i)
		}
	}
}

// start schedules the group's next step if it is idle and has work:
// admit the oldest waiting prefill while the batch has room, otherwise
// decode one micro-batch across every active session (continuous
// batching).
func (f *fleet) start(g *group, now float64) {
	if f.err != nil || g.busy {
		return
	}
	switch {
	case g.head < len(g.promptQ) && len(g.active) < f.batchCap:
		r := g.promptQ[g.head]
		g.head++
		cost, err := f.price(g, f.promptSlot[f.reqs[r].PromptLen])
		if err != nil {
			f.err = err
			return
		}
		end := now + cost.seconds
		f.totalEnergy += cost.joules
		f.prefillSteps++
		g.busy = true
		g.busySeconds += cost.seconds
		g.stepReq = r
		g.stepEnd = end
		f.eng.At(end, g.finish)
	case len(g.active) > 0:
		width := min(len(g.active), f.batchCap)
		maxCtx := 0
		for _, s := range g.active[:width] {
			maxCtx = max(maxCtx, s.ctx)
		}
		cost, err := f.price(g, f.decodeSlot(maxCtx, width))
		if err != nil {
			f.err = err
			return
		}
		end := now + cost.seconds
		f.totalEnergy += cost.joules
		f.decodeSteps++
		f.batchSum += int64(width)
		g.busy = true
		g.busySeconds += cost.seconds
		g.stepReq = -1
		g.stepWidth = width
		g.stepEnd = end
		f.eng.At(end, g.finish)
	}
}

// finishPrefill admits prefilled request r to the decode pool (or
// completes it outright when it has no decode budget) and reschedules.
func (f *fleet) finishPrefill(g *group, r int, end float64) {
	if f.err != nil {
		return
	}
	g.busy = false
	req := &f.reqs[r]
	f.ttfts = append(f.ttfts, end-req.ArrivalSeconds)
	if req.DecodeTokens == 0 {
		f.complete(req.ArrivalSeconds, end)
	} else {
		g.active = append(g.active, session{arrival: req.ArrivalSeconds, ctx: req.PromptLen, remaining: req.DecodeTokens})
	}
	f.start(g, end)
}

// finishDecode advances the first `width` active sessions by one token
// each, completes the ones that exhausted their budget, and
// reschedules.
func (f *fleet) finishDecode(g *group, width int, end float64) {
	if f.err != nil {
		return
	}
	g.busy = false
	kept := g.active[:0]
	for i, s := range g.active {
		if i < width {
			s.ctx++
			s.remaining--
			f.decodedTokens++
			if s.remaining == 0 {
				f.complete(s.arrival, end)
				continue
			}
		}
		kept = append(kept, s)
	}
	g.active = kept
	f.start(g, end)
}

// complete records one finished request that arrived at arrival.
func (f *fleet) complete(arrival, end float64) {
	f.completed++
	f.latencies = append(f.latencies, end-arrival)
	f.noteDepth(end, -1)
}

// noteDepth accumulates the time-weighted queue-depth integral and the
// adaptively strided series: when the series fills, every other sample
// is dropped and the stride doubles, bounding it to maxQueueSamples
// regardless of trace length.
func (f *fleet) noteDepth(now float64, delta int) {
	f.depthArea += float64(f.depth) * (now - f.lastDepthAt)
	f.lastDepthAt = now
	f.depth += delta
	if f.depth > f.maxDepth {
		f.maxDepth = f.depth
	}
	f.sinceSample++
	if f.sinceSample < f.stride {
		return
	}
	f.sinceSample = 0
	if len(f.samples) == maxQueueSamples {
		keep := f.samples[:0]
		for i := 0; i < len(f.samples); i += 2 {
			keep = append(keep, f.samples[i])
		}
		f.samples = keep
		f.stride *= 2
	}
	f.samples = append(f.samples, QueueSample{AtSeconds: now, Depth: f.depth})
}

// metrics assembles the run's deterministic serving metrics.
func (f *fleet) metrics(end float64) Metrics {
	// Close the depth integral out to the makespan.
	f.depthArea += float64(f.depth) * (end - f.lastDepthAt)
	f.lastDepthAt = end

	m := Metrics{
		Requests:      len(f.opts.Trace.Requests),
		Completed:     f.completed,
		SimSeconds:    end,
		MaxQueueDepth: f.maxDepth,
		QueueOverTime: f.samples,
		PrefillSteps:  f.prefillSteps,
		DecodeSteps:   f.decodeSteps,
	}
	if end > 0 {
		m.TokensPerSecond = float64(f.decodedTokens) / end
		m.RequestsPerSecond = float64(f.completed) / end
		m.MeanQueueDepth = f.depthArea / end
	}
	m.TotalEnergyJoules = f.totalEnergy
	if f.completed > 0 {
		m.EnergyPerRequestJoules = f.totalEnergy / float64(f.completed)
	}
	if f.decodeSteps > 0 {
		m.MeanBatch = float64(f.batchSum) / float64(f.decodeSteps)
	}
	// The mean sums in completion order; the percentile selection then
	// reorders the run-owned series in place.
	m.MeanLatencySeconds = mean(f.latencies)
	m.P50LatencySeconds, m.P99LatencySeconds = percentiles(f.latencies)
	m.P50TTFTSeconds, m.P99TTFTSeconds = percentiles(f.ttfts)
	for _, g := range f.groups {
		util := 0.0
		if end > 0 {
			util = g.busySeconds / end
		}
		m.GroupUtilization = append(m.GroupUtilization, util)
	}
	return m
}

// percentiles returns the nearest-rank P50 and P99 of the values (0
// when empty), reordering them in place: P99 is selected first, which
// leaves every value of lower rank in front of it, so P50 is then
// selected within that front part alone.
func percentiles(values []float64) (p50, p99 float64) {
	if len(values) == 0 {
		return 0, 0
	}
	k99 := nearestRank(99, len(values)) - 1
	p99 = selectKth(values, k99)
	p50 = selectKth(values[:k99+1], nearestRank(50, len(values))-1)
	return p50, p99
}

// nearestRank is the 1-based nearest rank of percentile p among n
// values.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return min(max(rank, 1), n)
}

// selectKth reorders s so that s[k] holds the value a full sort would
// put there, with no larger value before it and no smaller one after,
// and returns it. It is Hoare's quickselect around a median-of-three
// pivot: expected linear time, and an already ordered range (latencies
// of a saturated fleet complete nearly in order) partitions without a
// swap. After 2·log2(n) rounds it sorts whatever range is left, so no
// input costs more than a sort.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for rounds := 2 * bits.Len(uint(len(s))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(s[lo : hi+1])
			break
		}
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		// Afterwards s[lo:j+1] <= pivot <= s[i:hi+1], and anything
		// between the two equals the pivot.
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total / float64(len(values))
}
