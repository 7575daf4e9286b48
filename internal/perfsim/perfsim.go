// Package perfsim executes a lowered deployment and reports what the
// paper extracts from GVSoC, its event-driven platform simulator: total
// runtime in cycles, the runtime breakdown (computation, chip-to-chip
// link, L3↔L2 DMA, L2↔L1 DMA), and per-chip byte counters for the
// energy model.
//
// The simulator schedules no events. Every exclusive device — a chip's
// cluster, its L2↔L1 DMA and L3 I/O engine, each directed link — is a
// plain free time: a use starts when both the device and its input are
// ready and serializes the device's users in call order. Each tile of
// a synchronization prices its hop lists once per (link class,
// fraction) key and bills their bytes per key; its reduce and its
// broadcast loops then do per hop only what depends on hop order, and
// each chip's End settles once per run.
//
// Every strategy reaches the simulator as one block program (stages
// of phase and sync steps, deploy.Stage), which one loop runs without
// asking which strategy lowered it. Each phase carries its kernels,
// tile plans and synchronous L3 weight and spill bytes (deploy.Phase),
// and each sync its class, payloads, root work and reduce add
// (deploy.Sync); the simulator executes them as the deployment states
// them and derives none again. Chips sharing one program share its
// kernel prices.
//
// Modeling conventions (matching the paper's stacked-bar accounting):
// compute, L2↔L1 tile movement, and exposed L3 streaming serialize
// within a phase. Collective hops come from interconnect.Schedules —
// the simulator executes whatever hop lists the selected topologies
// lowered to, holding no structural knowledge of its own. Each
// synchronization carries a collective.SyncClass (prefill vs decode,
// MHSA vs FFN, the replicated exchanges), and a per-sync collective
// plan (deploy.Options.SyncPlan) may bind classes to different
// topologies: every bound shape is lowered once up front, and each
// sync executes its own class's schedule, with the synchronization
// count and link accounting split per class. Every (from, to) chip pair used by a schedule is an
// independent full-duplex link (the Fig. 1 hub wiring generalized)
// driven at its own edge's link class — bandwidth, setup, pJ/B —
// resolved from the platform's network description, so mixed MIPI/SPI
// boards and clustered backhauls simulate natively; partials
// converging on a chip arrive concurrently while that chip's
// accumulations serialize on its cluster.
// Collective payloads move in tiles, letting the broadcast of early
// tiles overlap the reduction of later ones.
//
// The simulator is allocation-free on its hot path: all per-run
// scratch state lives in a reusable Sim arena recycled through a
// sync.Pool, and only the returned Result (copied out of the arena) is
// freshly allocated per run.
package perfsim

import (
	"fmt"
	"math"
	"sync"

	"mcudist/internal/collective"
	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/kernels"
	"mcudist/internal/memsim"
	"mcudist/internal/trace"
)

// ChipStats accumulates one chip's activity.
type ChipStats struct {
	// Cycle buckets (busy time by cause).
	ComputeCycles float64
	L3Cycles      float64
	L2L1Cycles    float64
	C2CCycles     float64
	// Byte counters for the energy model.
	L3Bytes      int64 // all off-chip traffic (weights + spill)
	L3SpillBytes int64 // activation-spill share of L3Bytes
	L2L1Bytes    int64
	C2CSentBytes int64
	// C2CCyclesByClass / C2CSentBytesByClass split the chip-to-chip
	// totals per link class, indexed like Result.LinkClasses — the
	// axis heterogeneous networks (fast local links, slow backhaul)
	// are analyzed and billed on. A uniform network has exactly one
	// class, so index 0 equals the totals.
	C2CCyclesByClass    []float64
	C2CSentBytesByClass []int64
	// End is the chip's final timestamp.
	End float64
}

// Breakdown attributes total runtime to the paper's four categories,
// measured on the root chip's timeline (waits for remote partials are
// chip-to-chip time).
type Breakdown struct {
	Compute float64
	L2L1    float64
	L3      float64
	C2C     float64
}

// Total returns the summed breakdown, equal to the runtime.
func (b Breakdown) Total() float64 { return b.Compute + b.L2L1 + b.L3 + b.C2C }

// ClassStats aggregates the whole system's collective activity of one
// synchronization class — the axis a per-sync collective plan is
// chosen and judged on. C2CCycles is link busy time summed across
// chips (the per-class share of the ChipStats.C2CCycles totals), not
// the root-timeline chip-to-chip share of Breakdown.
type ClassStats struct {
	// Class is the synchronization class these counters cover.
	Class collective.SyncClass
	// Topology is the schedule shape the class's synchronizations
	// executed: the plan's binding, or the run topology.
	Topology hw.Topology
	// Syncs counts the synchronizations of this class.
	Syncs int
	// C2CCycles / C2CSentBytes total the class's link activity across
	// chips.
	C2CCycles    float64
	C2CSentBytes int64
	// C2CSentBytesByLink splits the class's bytes per link class,
	// indexed like Result.LinkClasses — what the energy model bills
	// each edge's own pJ/B on.
	C2CSentBytesByLink []int64
}

// Result is the outcome of one simulated forward pass.
type Result struct {
	TotalCycles float64
	Breakdown   Breakdown
	PerChip     []ChipStats
	// Syncs is the number of chip synchronizations executed (the
	// paper's scheme: 2 per block).
	Syncs int
	// ByClass splits the synchronization and link accounting per
	// synchronization class, in class order, covering only classes
	// that executed at least once. Pipeline handoffs are point-to-point
	// transfers outside any collective and appear in no class.
	ByClass []ClassStats
	// TreeDepth is the serialized hop depth of the RUN topology's
	// reduce schedule (the tree's depth; 1 for star and
	// fully-connected, N-1 for the ring). A per-sync plan's rebound
	// classes execute their own schedules — see ByClass for the
	// shapes that actually ran.
	TreeDepth int
	// Topology is the run topology (HW.Topology); classes rebound by
	// a per-sync plan report their own shape in ByClass.
	Topology hw.Topology
	// LinkClasses lists the distinct link classes the run's transfers
	// crossed, in first-use order; the per-class counters in ChipStats
	// are indexed against it. The energy model charges each class's
	// own pJ/B.
	LinkClasses []hw.LinkClass
	// TotalC2CBytes is the summed link traffic.
	TotalC2CBytes int64
}

// classAccum accumulates one synchronization class's activity while
// the simulation runs.
type classAccum struct {
	topology hw.Topology
	syncs    int
	cycles   float64
	bytes    int64
	// byLink is indexed like Sim.classes (carved full-width from the
	// arena once the class axis is final).
	byLink []int64
}

// Sim is a reusable simulation arena: one Sim owns every piece of
// per-run scratch state — the device free times, the per-(chip, chunk)
// readiness matrices, the kernel prices, the per-chip and per-class
// accumulators, the tile buffers — and recycles all of it across runs,
// so repeated simulations (sweeps, autotuning probes, fleet step
// pricing) allocate only their Results. The package-level
// Run/RunTraced draw Sims from an internal sync.Pool; construct one
// with NewSim to pin an arena to a caller instead.
//
// A Sim is not safe for concurrent use. Results it returns are copied
// out of the arena into fresh exact-size allocations, so they stay
// valid (and immutable-shareable, as evalpool requires) across later
// runs of the same Sim.
type Sim struct {
	d *deploy.Deployment
	// lows holds the run topology's schedule (always at index 0) plus
	// one lowered schedule per topology the collective plan binds, each
	// with its schedule classes mapped to run class ids once at setup,
	// so a tile's price table carries each key's run class id instead of
	// hashing a LinkClass per hop; scheds maps a bound topology to its
	// index in lows.
	lows     []loweredSched
	scheds   map[hw.Topology]int32
	classAcc [collective.NumSyncClasses]classAccum
	// chipFree holds the free times of the per-chip exclusive devices;
	// cluster, dma, and io are its thirds. linkFree holds one per
	// directed chip pair (each edge is its own full-duplex link),
	// indexed from*n+to. Both are cleared per run.
	chipFree []float64
	cluster  []float64
	dma      []float64
	io       []float64
	linkFree []float64
	n        int
	// classes/classID intern the distinct link classes transfers
	// cross (schedule classes first, pipeline-chain classes in chain
	// order), defining the per-class accounting axis. The axis is
	// complete before the simulation starts: every schedule lists its
	// hops' classes and the pipeline chain is resolved up front.
	classes []hw.LinkClass
	classID map[hw.LinkClass]int
	// chain is the routed pipeline handoff chain (multi-stage programs
	// only), and chainIDs the run class id of each of its classes. On a
	// fully wired network every stage boundary is the single direct hop
	// the simulator always took; on sparse or degraded wirings a
	// boundary routes multi-hop through surviving chips.
	chain    *interconnect.PipelineChain
	chainIDs []int32
	stats    []ChipStats
	// chipClassCycles/chipClassBytes back the per-chip per-class
	// counters (n × len(classes), carved into stats[i]); accByLink
	// backs the per-class byLink accumulators the same way.
	chipClassCycles []float64
	chipClassBytes  []int64
	accByLink       []int64
	syncs           int
	tl              *trace.Timeline
	// links holds each directed edge's span category and label on a
	// traced run, indexed from*n+to and formatted on the edge's first
	// traced hop of the run.
	links []linkLabel
	// sync/program scratch: flat per-(chip, chunk) readiness
	// matrices, chunks entries per chip, ping-pong arrival buffers
	// (alternating so a caller's previous arrival slice stays valid
	// while the next sync reads it), phase timelines, and payload tile
	// buffers.
	partial  []float64
	has      []float64
	chunks   int
	syncA    []float64
	syncB    []float64
	flip     bool
	phaseBuf []float64
	tiles    []int64
	bcast    []int64
	// redPrice, bcastPrice and chainPrice are the current tile's price
	// tables of the reduce, the broadcast and the pipeline chain hop
	// lists, one entry per price key (priceTile); rootMemo memoizes
	// each root-work kernel's price by fraction.
	redPrice   []hopPrice
	bcastPrice []hopPrice
	chainPrice []hopPrice
	rootMemo   []kernelPrice
	// prices holds every program's phase-kernel prices, computed once
	// per run: chip c's phases' kernels from priceOff[c], in order. A
	// run of chips sharing one program shares its prices.
	prices   []kernelPrice
	priceOff []int

	// Hardware scalars the per-kernel and per-hop paths read on every
	// call, cached flat at setup so the hot path never copies the
	// platform struct.
	freqHz     float64
	dmaL2BPC   float64
	dmaL2Setup int
	dmaL3BPC   float64
	dmaL3Setup int
	l1Tile     int64
	strChip    int
	strFactor  float64
	degChip    int
	degFactor  float64

	// Hierarchical memory model state: when the platform enables it,
	// off-chip transfers are priced on the DRAM channel (memCh) and
	// streamed GEMMs execute tile-by-tile (execTiled) over the
	// tileRing scratch that tracks stream-buffer slot drain times.
	memEnabled bool
	memCh      memsim.Channel
	tileRing   []float64
}

// linkLabel is the span category and label of one directed edge's hops.
type linkLabel struct {
	category, label string
}

// loweredSched is one schedule bound for this run plus the run-local
// class id of each of its classes, indexed by PriceKey.Class.
type loweredSched struct {
	sc  *interconnect.Schedule
	ids []int32
}

// kernelPrice is the chip-independent cost of one kernel execution:
// its L2↔L1 bytes with their DMA time, and its compute cycles before
// any straggler slowdown. frac is the share of the kernel a memoized
// price covers; the zero value is the price of a zero share, so a
// cleared memo never answers wrongly.
type kernelPrice struct {
	frac   float64
	bytes  int64
	dmaT   float64
	cycles float64
}

// hopPrice is one price key's cost on one tile of a hop list: the run
// class id of the key's link class, the bytes a hop moves, their
// transfer time on a nominal link (dur) and on a link touching the
// degraded chip (deg), and on a reduce the receiver's share of the
// reduce add, with its cycles on the straggler (addStr) apart. Without
// a degraded chip or a straggler the two prices are equal.
type hopPrice struct {
	id       int32
	payload  int64
	dur, deg float64
	add      kernelPrice
	addStr   float64
}

// NewSim returns an empty arena. The zero Sim is ready to use; every
// run sizes the scratch to its deployment.
func NewSim() *Sim { return &Sim{} }

// simPool recycles arenas across the package-level entry points:
// concurrent evaluations (the evalpool workers) each borrow a Sim for
// the duration of one run.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// classIndex interns a link class into the per-class accounting axis.
func (s *Sim) classIndex(c hw.LinkClass) int {
	if id, ok := s.classID[c]; ok {
		return id
	}
	id := len(s.classes)
	s.classes = append(s.classes, c)
	s.classID[c] = id
	return id
}

// use occupies an exclusive device whose free time is *free for dur
// cycles, starting once both the device and the caller (ready) are
// free, and returns the end. Users serialize in the order they call.
func use(free *float64, ready, dur float64) float64 {
	if dur < 0 {
		panic(negativeUse(dur))
	}
	start := *free
	if start < ready {
		start = ready
	}
	end := start + dur
	*free = end
	return end
}

// negativeUse is the panic value of a use with a negative duration, a
// pricing bug. Formatting the message inside use would put use over
// the compiler's inlining budget.
type negativeUse float64

func (d negativeUse) Error() string {
	return fmt.Sprintf("perfsim: negative use duration %v", float64(d))
}

// lowerSched registers one schedule for this run: its classes join the
// accounting axis in declaration order, each interned once here. A bare
// schedule (the pipeline's) resolved no classes; its hops all carry the
// zero class, which joins the axis when the schedule has any hop.
func (s *Sim) lowerSched(sc *interconnect.Schedule) int32 {
	idx := int32(len(s.lows))
	if len(s.lows) < cap(s.lows) {
		s.lows = s.lows[:idx+1]
	} else {
		s.lows = append(s.lows, loweredSched{})
	}
	lo := &s.lows[idx]
	lo.sc = sc
	lo.ids = lo.ids[:0]
	for _, c := range sc.Classes {
		lo.ids = append(lo.ids, int32(s.classIndex(c)))
	}
	if len(sc.Classes) == 0 && len(sc.Reduce)+len(sc.Broadcast) > 0 {
		lo.ids = append(lo.ids, int32(s.classIndex(hw.LinkClass{})))
	}
	return idx
}

func (s *Sim) span(chip int, category, label string, start, end float64) {
	if s.tl != nil && end > start {
		s.tl.Add(chip, category, label, start, end)
	}
}

// Run simulates the deployment and returns the runtime report.
func Run(d *deploy.Deployment) (*Result, error) {
	return RunTraced(d, nil)
}

// RunTraced simulates the deployment, additionally recording every
// kernel, DMA transfer, and link hop into tl (when non-nil).
func RunTraced(d *deploy.Deployment, tl *trace.Timeline) (*Result, error) {
	s := simPool.Get().(*Sim)
	res, err := s.RunTraced(d, tl)
	// Drop the per-run references before pooling so a parked arena
	// does not pin a deployment (or a timeline) alive.
	s.d = nil
	s.tl = nil
	simPool.Put(s)
	return res, err
}

// RunTraced simulates the deployment on this arena, recording spans
// into tl when non-nil.
func (s *Sim) RunTraced(d *deploy.Deployment, tl *trace.Timeline) (*Result, error) {
	n := d.Plan.Chips
	var sched *interconnect.Schedule
	var err error
	if len(d.Classes) == 0 {
		// A program without classes (the pipeline's) never executes the
		// collective hops — it transfers only on its handoff chain
		// (resolved in bind) — so a network that wires just the chain
		// must not be rejected for leaving collective edges undefined.
		sched, err = interconnect.NewBareSchedule(d.HW.Topology, n, d.HW.GroupSize)
	} else {
		// Collective schedules come from the process-wide intern cache:
		// lowering and validation run once per (network, chips,
		// topology) triple, so repeated evaluations — sweeps, frontier
		// grids, autotuning — never re-lower on the hot path. The
		// interned schedule is shared and read-only.
		sched, err = interconnect.CachedSchedule(d.HW, n)
	}
	if err != nil {
		return nil, err
	}
	if err := s.bind(d, sched, tl); err != nil {
		return nil, err
	}

	end := s.run()
	if math.IsInf(end, 0) || math.IsNaN(end) {
		// A finite, positive link bandwidth or fault factor can still
		// overflow a transfer time; report it rather than print +Inf.
		return nil, fmt.Errorf("perfsim: simulated runtime is not finite (%g cycles): a link or fault setting overflows the cycle count", end)
	}
	s.foldEnds()

	// Results escape into caches shared between callers (evalpool
	// memoizes them as immutable), so every accumulator is copied out
	// of the arena into exact-size fresh slices: the per-chip class
	// counters carve two backing arrays, one allocation each.
	res := &Result{
		TotalCycles: end,
		Syncs:       s.syncs,
		TreeDepth:   sched.Depth,
		Topology:    sched.Topology,
		LinkClasses: append([]hw.LinkClass(nil), s.classes...),
		PerChip:     make([]ChipStats, n),
	}
	nc := len(s.classes)
	cyc := make([]float64, n*nc)
	byt := make([]int64, n*nc)
	copy(cyc, s.chipClassCycles)
	copy(byt, s.chipClassBytes)
	for i := range s.stats {
		res.PerChip[i] = s.stats[i]
		res.PerChip[i].C2CCyclesByClass = carveFloats(cyc, i, nc)
		res.PerChip[i].C2CSentBytesByClass = carveInts(byt, i, nc)
		res.TotalC2CBytes += s.stats[i].C2CSentBytes
	}
	nActive := 0
	for c := range s.classAcc {
		if s.classAcc[c].syncs > 0 {
			nActive++
		}
	}
	if nActive > 0 {
		res.ByClass = make([]ClassStats, 0, nActive)
		links := make([]int64, nActive*nc)
		li := 0
		for c := collective.SyncClass(0); c < collective.NumSyncClasses; c++ {
			acc := &s.classAcc[c]
			if acc.syncs == 0 {
				continue
			}
			bl := carveInts(links, li, nc)
			copy(bl, acc.byLink)
			li++
			res.ByClass = append(res.ByClass, ClassStats{
				Class:              c,
				Topology:           acc.topology,
				Syncs:              acc.syncs,
				C2CCycles:          acc.cycles,
				C2CSentBytes:       acc.bytes,
				C2CSentBytesByLink: bl,
			})
		}
	}
	if len(d.Stages) > 1 {
		// Stages run serially: the whole-system breakdown is the sum
		// of per-stage activity plus the link handoffs.
		for i := range s.stats {
			res.Breakdown.Compute += s.stats[i].ComputeCycles
			res.Breakdown.L2L1 += s.stats[i].L2L1Cycles
			res.Breakdown.L3 += s.stats[i].L3Cycles
		}
	} else {
		// The root participates in every phase and sync; gaps in its
		// timeline are waits on remote partials (chip-to-chip time).
		rb := &s.stats[sched.Root]
		res.Breakdown = Breakdown{
			Compute: rb.ComputeCycles,
			L2L1:    rb.L2L1Cycles,
			L3:      rb.L3Cycles,
		}
	}
	res.Breakdown.C2C = end - res.Breakdown.Compute - res.Breakdown.L2L1 - res.Breakdown.L3
	// Clamp floating-point residue: a system that moved no link bytes
	// has no chip-to-chip time.
	if res.Breakdown.C2C < 0 || (res.TotalC2CBytes == 0 && res.Breakdown.C2C < 1e-6*end) {
		res.Breakdown.C2C = 0
	}
	return res, nil
}

// bind rebinds the recycled arena to a run of d whose run topology
// lowered to sched: it resolves the schedules the collective plan binds
// and the pipeline's handoff chain, fixes the class axis, and sizes and
// clears every device, counter and scratch buffer.
func (s *Sim) bind(d *deploy.Deployment, sched *interconnect.Schedule, tl *trace.Timeline) error {
	n := d.Plan.Chips
	s.d = d
	s.syncs = 0
	s.tl = tl
	s.n = n
	s.flip = false
	s.freqHz = d.HW.Chip.FreqHz
	s.dmaL2BPC = d.HW.Chip.DMAL2L1BytesPerCycle
	s.dmaL2Setup = d.HW.Chip.DMAL2L1SetupCycles
	s.dmaL3BPC = d.HW.Chip.DMAL3L2BytesPerCycle
	s.dmaL3Setup = d.HW.Chip.DMAL3L2SetupCycles
	s.l1Tile = int64(d.HW.Chip.L1Bytes / 2)
	s.memEnabled = d.HW.Mem.Enabled()
	if s.memEnabled {
		s.memCh = memsim.ChannelOf(d.HW)
	}
	s.strChip, s.strFactor = d.Options.StragglerChip, d.Options.StragglerFactor
	s.degChip, s.degFactor = d.Options.DegradedLinkChip, d.Options.DegradedLinkFactor
	if s.scheds == nil {
		s.scheds = make(map[hw.Topology]int32, 4)
	} else {
		clear(s.scheds)
	}
	if s.classID == nil {
		s.classID = make(map[hw.LinkClass]int, 4)
	} else {
		clear(s.classID)
	}
	s.classes = s.classes[:0]
	s.lows = s.lows[:0]

	// Seed the accounting axis with the schedule's classes so class
	// order is deterministic (first reduce hop's class is class 0)
	// regardless of which hop executes first, and resolve the run
	// schedule's per-hop class ids (lows index 0, schedFor's default).
	s.scheds[sched.Topology] = s.lowerSched(sched)
	// Resolve one schedule per topology the collective plan binds to a
	// class of the deployment, each lowered and validated against the
	// network wiring up front (through the same intern cache as the run
	// schedule) — a plan routing an active class over an unwired edge
	// fails here, before any simulation runs, while a merged
	// prefill+decode plan never pays (or fails) for the other mode's
	// bindings. The run topology's schedule is reused
	// untouched, so the zero plan stays byte-identical to the
	// single-topology simulator. The pipeline has no classes (its
	// network may wire only the handoff chain).
	for _, cl := range d.Classes {
		topo, bound := d.Options.SyncPlan.Explicit(cl)
		if !bound {
			continue
		}
		if _, ok := s.scheds[topo]; ok {
			continue
		}
		hp := d.HW
		hp.Topology = topo
		alt, err := interconnect.CachedSchedule(hp, n)
		if err != nil {
			return fmt.Errorf("perfsim: collective plan: %w", err)
		}
		s.scheds[topo] = s.lowerSched(alt)
	}
	if len(d.Stages) > 1 {
		// The pipeline handoff chain is not part of the collective
		// schedule; it is routed and class-resolved against the network
		// up front (through the interconnect intern cache, once per
		// (network, chips) pair), so a severed chain fails before
		// simulation, like any schedule hop over an undefined edge. A
		// stage boundary whose direct edge is unwired — a sparse fabric
		// or a degraded board — executes its routed multi-hop segment;
		// on fully wired networks every segment is the single direct
		// hop, byte-identical to the legacy chain.
		chain, err := interconnect.CachedPipelineChain(d.HW.Network, n)
		if err != nil {
			return fmt.Errorf("perfsim: %w", err)
		}
		s.chain = chain
		// A chain key's Class indexes the chain's classes, listed in
		// first-use order along the chain.
		s.chainIDs = s.chainIDs[:0]
		for _, c := range chain.Classes {
			s.chainIDs = append(s.chainIDs, int32(s.classIndex(c)))
		}
	}

	// The class axis is final; carve the per-chip and per-class
	// counters full-width from the arena's backing arrays.
	nc := len(s.classes)
	s.chipClassCycles = growFloats(s.chipClassCycles, n*nc)
	s.chipClassBytes = growInts(s.chipClassBytes, n*nc)
	if cap(s.stats) < n {
		s.stats = make([]ChipStats, n)
	}
	s.stats = s.stats[:n]
	for i := 0; i < n; i++ {
		s.stats[i] = ChipStats{
			C2CCyclesByClass:    carveFloats(s.chipClassCycles, i, nc),
			C2CSentBytesByClass: carveInts(s.chipClassBytes, i, nc),
		}
	}
	s.accByLink = growInts(s.accByLink, int(collective.NumSyncClasses)*nc)
	for c := range s.classAcc {
		s.classAcc[c] = classAccum{byLink: carveInts(s.accByLink, c, nc)}
	}
	// Every device is free at time zero.
	s.chipFree = growFloats(s.chipFree, 3*n)
	s.cluster = s.chipFree[:n]
	s.dma = s.chipFree[n : 2*n]
	s.io = s.chipFree[2*n : 3*n]
	s.linkFree = growFloats(s.linkFree, n*n)
	if tl != nil {
		if cap(s.links) < n*n {
			s.links = make([]linkLabel, n*n)
		}
		s.links = s.links[:n*n]
		clear(s.links)
	}

	// A program's kernels run at the same price in every block and on
	// every chip that runs it (the straggler slowdown applies at
	// execution), so each run of chips sharing a program prices it
	// once: a chip whose program is its predecessor's reuses its
	// prices.
	s.prices = s.prices[:0]
	s.priceOff = s.priceOff[:0]
	for c, cd := range d.Chips {
		if c > 0 && cd == d.Chips[c-1] {
			s.priceOff = append(s.priceOff, s.priceOff[c-1])
			continue
		}
		s.priceOff = append(s.priceOff, len(s.prices))
		for _, ph := range cd.Phases {
			for i := range ph.Ops {
				s.prices = append(s.prices, s.price(ph.Ops[i].TotalL2L1Bytes(), ph.Ops[i].Cycles))
			}
		}
	}

	// Synchronization scratch: readiness matrices sized for the widest
	// schedule, ping-pong arrival buffers, the program's timelines.
	maxChunks := 0
	for i := range s.lows {
		if c := s.lows[i].sc.Chunks; c > maxChunks {
			maxChunks = c
		}
	}
	s.partial = growFloats(s.partial, n*maxChunks)
	s.has = growFloats(s.has, n*maxChunks)
	s.syncA = growFloats(s.syncA, n)
	s.syncB = growFloats(s.syncB, n)
	s.phaseBuf = growFloats(s.phaseBuf, 3*n)
	return nil
}

// growFloats returns a zeroed length-n slice, reusing buf's backing
// array when it is large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// growInts is growFloats for int64 scratch.
func growInts(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// carveFloats cuts row i of width nc out of a flat backing array,
// capacity-clamped. A zero-width axis yields nil, matching the slices
// a run with no link classes historically reported.
func carveFloats(backing []float64, i, nc int) []float64 {
	if nc == 0 {
		return nil
	}
	return backing[i*nc : (i+1)*nc : (i+1)*nc]
}

// carveInts is carveFloats for int64 rows.
func carveInts(backing []int64, i, nc int) []int64 {
	if nc == 0 {
		return nil
	}
	return backing[i*nc : (i+1)*nc : (i+1)*nc]
}

// price is the chip-independent cost of moving bytes L2↔L1 and
// computing for cycles.
func (s *Sim) price(bytes int64, cycles float64) kernelPrice {
	p := kernelPrice{bytes: bytes, cycles: cycles}
	if bytes > 0 {
		p.dmaT = kernels.DMATime(bytes, s.dmaL2BPC, s.dmaL2Setup, s.l1Tile)
	}
	return p
}

// execScaled runs a fraction of a kernel's cost (a tile's share of the
// root work): its activation traffic and cycles scale, and it moves no
// weights. The price is a pure function of the kernel and the
// fraction, so memo, which a sync keeps per kernel, reprices only when
// the fraction changes.
func (s *Sim) execScaled(chip int, t float64, cost *kernels.Cost, frac float64, memo *kernelPrice) float64 {
	if memo.frac != frac {
		*memo = s.price(int64(float64(cost.ActInBytes)*frac)+int64(float64(cost.ActOutBytes)*frac), cost.Cycles*frac)
		memo.frac = frac
	}
	return s.execPriced(chip, t, cost.Name, memo)
}

// execPriced runs one priced kernel on a chip starting no earlier than
// t. The straggler slowdown, the one chip-dependent part of a price,
// applies here.
func (s *Sim) execPriced(chip int, t float64, name string, p *kernelPrice) float64 {
	st := &s.stats[chip]
	if p.bytes > 0 {
		t = use(&s.dma[chip], t, p.dmaT)
		s.span(chip, "dma-l2l1", name, t-p.dmaT, t)
		st.L2L1Cycles += p.dmaT
		st.L2L1Bytes += p.bytes
	}
	if p.cycles > 0 {
		cycles := p.cycles
		if f := s.strFactor; f > 0 && chip == s.strChip {
			cycles /= f
		}
		t = use(&s.cluster[chip], t, cycles)
		s.span(chip, "compute", name, t-cycles, t)
		st.ComputeCycles += cycles
	}
	if t > st.End {
		st.End = t
	}
	return t
}

// l3Time prices moving bytes over the off-chip path: the DRAM channel
// (per-burst setup + bandwidth) under the hierarchical model, the flat
// I/O-DMA accounting otherwise.
func (s *Sim) l3Time(bytes int64) float64 {
	if s.memEnabled {
		return s.memCh.TransferCycles(bytes)
	}
	return kernels.DMATime(bytes, s.dmaL3BPC, s.dmaL3Setup, s.l1Tile)
}

// l3Load streams bytes from L3 into L2 starting no earlier than t and
// returns the completion time. spill marks activation-spill traffic.
func (s *Sim) l3Load(chip int, t float64, bytes int64, spill bool) float64 {
	if bytes <= 0 {
		return t
	}
	dur := s.l3Time(bytes)
	end := use(&s.io[chip], t, dur)
	if s.tl != nil {
		label := "weights"
		if spill {
			label = "act-spill"
		}
		s.span(chip, "dma-l3", label, end-dur, end)
	}
	s.stats[chip].L3Cycles += dur
	s.stats[chip].L3Bytes += bytes
	if spill {
		s.stats[chip].L3SpillBytes += bytes
	}
	if end > s.stats[chip].End {
		s.stats[chip].End = end
	}
	return end
}

// l3Background charges prefetch traffic that is off the critical path:
// bytes and engine occupancy, no dependency for the caller. Returns
// the transfer duration.
func (s *Sim) l3Background(chip int, t float64, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	dur := s.l3Time(bytes)
	end := use(&s.io[chip], t, dur)
	s.span(chip, "dma-l3", "prefetch", end-dur, end)
	s.stats[chip].L3Bytes += bytes
	return dur
}

// phase executes one phase of a chip's program: its synchronous L3
// traffic (TierStreamed weights, then activation spill) serialized
// before the compute as on a capacity-starved chip, then its kernels.
// prices is index-parallel to ph.Ops. Kernels with a tile plan
// (ph.Stream, the hierarchical memory model) execute tile-by-tile
// through the DRAM channel instead of at their monolithic price.
func (s *Sim) phase(chip int, t float64, ph *deploy.Phase, prices []kernelPrice) float64 {
	t = s.l3Load(chip, t, ph.L3Weights, false)
	t = s.l3Load(chip, t, ph.L3Spill, true)
	for i := range ph.Ops {
		if ph.Stream != nil && ph.Stream[i] != nil {
			t = s.execTiled(chip, t, &ph.Ops[i], ph.Stream[i])
		} else {
			t = s.execPriced(chip, t, ph.Ops[i].Name, &prices[i])
		}
	}
	return t
}

// execTiled runs one weight-streaming GEMM tile-by-tile: each tile's
// DRAM fetch occupies the chip's io engine (gated by the channel being
// free and by its stream-buffer slot having drained, Plan.Slots slots),
// then its L2→L1 DMA and compute+stall serialize after the previous
// tile's work — exactly the recurrence Plan.Makespan evaluates in
// closed form, so with a free chip the elapsed time equals the plan
// makespan (pinned by a test; the identity is what lets the autotuner
// rank tilings without simulating).
//
// Accounting: per-tile DMA and compute are billed to their own
// breakdown buckets, bank-contention stalls and the fetch latency the
// prefetch failed to hide are billed as off-chip (L3) time, and the
// whole weight matrix is billed once as off-chip bytes — so the root
// chip's buckets still sum exactly to its elapsed time.
func (s *Sim) execTiled(chip int, t float64, cost *kernels.Cost, p *memsim.Plan) float64 {
	slots := p.Slots()
	ring := growFloats(s.tileRing, slots)
	s.tileRing = ring
	start := t
	prevCd := t
	var charged float64
	st := &s.stats[chip]
	slot := 0
	for _, tile := range p.All() {
		ready := start
		if r := ring[slot]; r > ready {
			ready = r
		}
		fEnd := use(&s.io[chip], ready, tile.Fetch)
		if s.tl != nil {
			s.span(chip, "dma-l3", "tile-fetch", fEnd-tile.Fetch, fEnd)
		}
		dEnd := use(&s.dma[chip], maxF(fEnd, prevCd), tile.DMA)
		s.span(chip, "dma-l2l1", cost.Name, dEnd-tile.DMA, dEnd)
		comp := tile.Comp
		if f := s.strFactor; f > 0 && chip == s.strChip {
			comp /= f
		}
		work := comp + tile.Stall
		cEnd := use(&s.cluster[chip], dEnd, work)
		s.span(chip, "compute", cost.Name, cEnd-work, cEnd)
		st.L2L1Cycles += tile.DMA
		st.L2L1Bytes += tile.L2L1Bytes
		st.ComputeCycles += comp
		st.L3Cycles += tile.Stall
		charged += tile.DMA + comp + tile.Stall
		ring[slot] = cEnd
		if slot++; slot == slots {
			slot = 0
		}
		prevCd = cEnd
	}
	st.L3Bytes += p.WeightBytes
	if exposed := (prevCd - start) - charged; exposed > 0 {
		st.L3Cycles += exposed
	}
	if prevCd > st.End {
		st.End = prevCd
	}
	return prevCd
}

// priceTile prices one tile of a hop list once per price key of its
// schedule (or chain) into buf: the bytes a hop of the key moves — its
// Frac of tile — and their time at the key's link class's own rate and
// setup cost, which is what lets one schedule mix fast local links with
// a slow backhaul; links touching a degraded chip (failure injection)
// transfer at the configured fraction of nominal bandwidth. With add
// set it also prices the receiver's part of a reduce hop: the fraction
// share*Frac of the reduce add, where share is the tile's fraction of
// the payload. Each price is a pure function of the key, tile and
// share, so the table holds what every hop of the tile would compute.
func (s *Sim) priceTile(buf []hopPrice, keys []interconnect.PriceKey, ids []int32, tile int64, share float64, add *kernels.Cost) []hopPrice {
	buf = buf[:0]
	for _, k := range keys {
		id := ids[k.Class]
		payload := interconnect.ScalePayload(tile, k.Frac)
		p := hopPrice{id: id, payload: payload, dur: s.classes[id].TransferCycles(s.freqHz, payload)}
		p.deg = p.dur
		if s.degFactor > 0 {
			p.deg /= s.degFactor
		}
		if add != nil {
			f := share * k.Frac
			p.add = s.price(int64(float64(add.ActInBytes)*f)+int64(float64(add.ActOutBytes)*f), add.Cycles*f)
			p.addStr = p.add.cycles
			if s.strFactor > 0 {
				p.addStr /= s.strFactor
			}
		}
		buf = append(buf, p)
	}
	return buf
}

// billSends bills one tile of a hop list's sent bytes: per (sender,
// key), the hop count times the key's payload, to the sender and,
// inside a collective (acc non-nil), to the sync class. Integer sums
// are exact in any order, so this is billing hop by hop, batched.
func (s *Sim) billSends(counts []interconnect.HopCount, prices []hopPrice, acc *classAccum) {
	for _, c := range counts {
		p := &prices[c.Key]
		b := int64(c.Hops) * p.payload
		st := &s.stats[c.Chip]
		st.C2CSentBytes += b
		st.C2CSentBytesByClass[p.id] += b
		if acc != nil {
			acc.bytes += b
			acc.byLink[p.id] += b
		}
	}
}

// billAdds bills one reduce tile's accumulation traffic: per (receiver,
// key), the hop count times the add's L2↔L1 bytes.
func (s *Sim) billAdds(counts []interconnect.HopCount, prices []hopPrice) {
	for _, c := range counts {
		if b := prices[c.Key].add.bytes; b > 0 {
			s.stats[c.Chip].L2L1Bytes += int64(c.Hops) * b
		}
	}
}

// reduce runs one tile's reduce hop list at the tile's prices (indexed
// by each hop's key). A hop starts when the sender's accumulator for
// the chunk settles (or, for a hop that sends the original partial,
// when ready says it is), crosses the directed link From->To, and the
// receiver then runs its part of the reduce add on its DMA and cluster.
//
// A hop does only the work whose result depends on hop order: it
// occupies its devices, traces them, and adds its cycles to the float
// sums — the sender's C2CCycles and C2CCyclesByClass, the sync class's
// cycles, the receiver's L2L1Cycles and ComputeCycles. Floating-point
// addition is not associative, so those sums stay per hop, in hop order
// (a tile's count times a price would round differently). Its bytes are
// billed per tile (billSends, billAdds) and each chip's End once per
// run (foldEnds). The arena's slices and the fault settings sit in
// locals: this loop and broadcast are where a simulation spends its
// time.
func (s *Sim) reduce(list []interconnect.Hop, prices []hopPrice, addName string, cycles *float64, ready []float64) {
	n, chunks, tl := s.n, s.chunks, s.tl
	partial, links, stats, dma, cluster := s.partial, s.linkFree, s.stats, s.dma, s.cluster
	degChip, strChip := s.degChip, s.strChip
	// The sync class's running sum, held in a register: the same
	// additions in the same order as on *cycles.
	sum := *cycles
	for i := range list {
		h := &list[i]
		from, to := h.From, h.To
		var start float64
		if h.FromAccumulated {
			start = partial[from*chunks+h.Chunk]
		} else {
			// All-to-all sends the original partial; only the receiver
			// accumulates.
			start = ready[from]
		}
		p := &prices[h.Key()]
		dur := p.dur
		if from == degChip || to == degChip {
			dur = p.deg
		}
		end := use(&links[from*n+to], start, dur)
		if tl != nil {
			s.linkSpan(from, to, end-dur, end)
		}
		st := &stats[from]
		st.C2CCycles += dur
		st.C2CCyclesByClass[p.id] += dur
		sum += dur
		q := to*chunks + h.Chunk
		t := maxF(end, partial[q])
		rt := &stats[to]
		if p.add.bytes > 0 {
			t = use(&dma[to], t, p.add.dmaT)
			if tl != nil {
				s.span(to, "dma-l2l1", addName, t-p.add.dmaT, t)
			}
			rt.L2L1Cycles += p.add.dmaT
		}
		if p.add.cycles > 0 {
			c := p.add.cycles
			if to == strChip {
				c = p.addStr
			}
			t = use(&cluster[to], t, c)
			if tl != nil {
				s.span(to, "compute", addName, t-c, t)
			}
			rt.ComputeCycles += c
		}
		partial[q] = t
	}
	*cycles = sum
}

// broadcast runs one tile's broadcast hop list, or one pipeline handoff
// segment, at the tile's prices: each hop starts when its sender holds
// the chunk (has), crosses the directed link From->To, and marks the
// receiver as holding it (has, arrive). It returns the last hop's end.
// As in reduce, a hop does only the work that depends on hop order,
// and its float cycle sums stay per hop for their addition order.
func (s *Sim) broadcast(list []interconnect.Hop, prices []hopPrice, cycles *float64, arrive []float64) float64 {
	n, chunks, tl := s.n, s.chunks, s.tl
	has, links, stats := s.has, s.linkFree, s.stats
	degChip := s.degChip
	sum := *cycles
	var end float64
	for i := range list {
		h := &list[i]
		from, to := h.From, h.To
		p := &prices[h.Key()]
		dur := p.dur
		if from == degChip || to == degChip {
			dur = p.deg
		}
		end = use(&links[from*n+to], has[from*chunks+h.Chunk], dur)
		if tl != nil {
			s.linkSpan(from, to, end-dur, end)
		}
		st := &stats[from]
		st.C2CCycles += dur
		st.C2CCyclesByClass[p.id] += dur
		sum += dur
		q := to*chunks + h.Chunk
		if end > has[q] {
			has[q] = end
		}
		if end > arrive[to] {
			arrive[to] = end
		}
	}
	*cycles = sum
	return end
}

// linkSpan traces one hop on its directed edge. Each edge is its own
// full-duplex PHY, traced as its own exclusive device; its labels are
// formatted only on the traced (cold) path, once per edge and run.
func (s *Sim) linkSpan(from, to int, start, end float64) {
	l := &s.links[from*s.n+to]
	if l.category == "" {
		l.category, l.label = fmt.Sprintf("link%d-%d", from, to), fmt.Sprintf("%d->%d", from, to)
	}
	s.span(from, l.category, l.label, start, end)
}

// foldEnds settles each chip's End once per run, after the hop loops,
// which leave it alone. A device's free time only grows, so the latest
// end of any use of a chip's cluster, DMA or links — the links it sends
// and receives on — is that device's final free time; unused links
// stay free at 0. The other time a hop reaches, a receiver's settled
// partial, is a device's end or a time the chip's End already holds.
// The io engine stays out: a background prefetch (l3Background)
// occupies it past any time the chip's work waits for.
func (s *Sim) foldEnds() {
	n, stats := s.n, s.stats
	for c := range stats {
		st := &stats[c]
		st.End = maxF(s.cluster[c], st.End)
		st.End = maxF(s.dma[c], st.End)
	}
	for from := 0; from < n; from++ {
		sender := &stats[from]
		for to, free := range s.linkFree[from*n : from*n+n] {
			if free > sender.End {
				sender.End = free
			}
			if free > stats[to].End {
				stats[to].End = free
			}
		}
	}
}

// appendTiles cuts a payload into tiles of at most
// deploy.DefaultCommTileBytes, appending into the caller's scratch
// buffer.
func appendTiles(buf []int64, payload int64) []int64 {
	if payload <= 0 {
		return append(buf, 0)
	}
	for payload > 0 {
		t := min(payload, deploy.DefaultCommTileBytes)
		buf = append(buf, t)
		payload -= t
	}
	return buf
}

// schedFor resolves the schedule a synchronization class executes:
// the collective plan's binding, or the run topology's schedule (lows
// index 0). Every schedule a plan can select was lowered up front in
// bind.
func (s *Sim) schedFor(class collective.SyncClass) *loweredSched {
	if topo, ok := s.d.Options.SyncPlan.Explicit(class); ok {
		return &s.lows[s.scheds[topo]]
	}
	return &s.lows[0]
}

// sync performs one collective synchronization — reduce + root work +
// broadcast — by executing the hop schedule its class is bound to,
// pipelined over payload tiles. ready[i] is when chip i's partial is
// available; the returned slice is when each chip holds the broadcast
// result. The step's root work runs (tile- and share-proportionally)
// on the schedule's finalizing chips between a tile's reduction and
// its broadcast.
//
// Readiness is tracked per (chip, chunk): partial[c*chunks+q] is when
// chip c's accumulator for chunk q last settled, has[c*chunks+q] when
// chip c received the finalized chunk q. Whole-payload topologies use
// a single chunk, reducing to the original tree recursion; the ring's
// 2(N-1)-step chunk rotation needs the extra axis so a chip's send of
// one chunk never waits on its concurrent receive of another.
//
// The returned arrival slice is arena scratch: syncs alternate between
// two buffers, so it stays valid across exactly one subsequent sync —
// the only lifetime the program's loop needs.
func (s *Sim) sync(step *deploy.Sync, ready []float64) []float64 {
	s.syncs++
	n := s.d.Plan.Chips
	lo := s.schedFor(step.Class)
	sc := lo.sc
	acc := &s.classAcc[step.Class]
	acc.topology = sc.Topology
	acc.syncs++

	s.tiles = appendTiles(s.tiles[:0], step.ReducePayload)
	tiles := s.tiles
	nt := len(tiles)
	bcastTiles := appendTiles(s.bcast[:0], step.BcastPayload)
	// Align tile counts (reduce fraction governs; broadcast payload
	// is split proportionally).
	for len(bcastTiles) < nt {
		bcastTiles = append(bcastTiles, 0)
	}
	if len(bcastTiles) > nt {
		merged := int64(0)
		for _, b := range bcastTiles[nt-1:] {
			merged += b
		}
		bcastTiles = append(bcastTiles[:nt-1], merged)
	}
	s.bcast = bcastTiles

	// arrive[c] tracks when chip c holds all broadcast tiles (its
	// start time for the next phase) — the ping-pong half the previous
	// sync did not return.
	arrive := s.syncB
	if s.flip = !s.flip; s.flip {
		arrive = s.syncA
	}
	copy(arrive, ready)

	chunks := sc.Chunks
	s.chunks = chunks
	partial := s.partial
	has := s.has
	// Each root-work kernel's memoized price.
	rootWork := step.RootWork
	if cap(s.rootMemo) < len(rootWork) {
		s.rootMemo = make([]kernelPrice, len(rootWork))
	}
	roots := s.rootMemo[:len(rootWork)]
	clear(roots)
	frac := 1.0 / float64(nt)
	for k := 0; k < nt; k++ {
		for c := 0; c < n; c++ {
			row, r := partial[c*chunks:(c+1)*chunks], ready[c]
			for q := range row {
				row[q] = r
			}
		}
		clear(has[:n*chunks])
		s.redPrice = s.priceTile(s.redPrice, sc.Keys, lo.ids, tiles[k], frac, &step.Add)
		s.reduce(sc.Reduce, s.redPrice, step.Add.Name, &acc.cycles, ready)
		s.billSends(sc.ReduceSends, s.redPrice, acc)
		s.billAdds(sc.ReduceAdds, s.redPrice)
		for _, f := range sc.Final {
			t := partial[f.Chip*chunks+f.Chunk]
			for i := range rootWork {
				t = s.execScaled(f.Chip, t, &rootWork[i], frac*f.Frac, &roots[i])
			}
			if t > arrive[f.Chip] {
				arrive[f.Chip] = t
			}
			has[f.Chip*chunks+f.Chunk] = t
		}
		s.bcastPrice = s.priceTile(s.bcastPrice, sc.Keys, lo.ids, bcastTiles[k], frac, nil)
		s.broadcast(sc.Broadcast, s.bcastPrice, &acc.cycles, arrive)
		s.billSends(sc.BroadcastSends, s.bcastPrice, acc)
	}
	return arrive
}

// run executes the deployment's program and returns the runtime. Each
// stage runs its steps once per block on its chips: a phase step runs
// each chip's phase in chip order from the time the chip is ready, a
// sync step synchronizes every chip. After each block a double-buffered
// chip prefetches its next block's weights. Entering a stage after the
// first, the previous stage's last chip hands the activations along the
// chain to the stage's first chip, which starts when they arrive.
func (s *Sim) run() float64 {
	d, n := s.d, s.n
	ready := s.phaseBuf[0:n]
	blockStart := s.phaseBuf[n : 2*n]
	relayed := s.phaseBuf[2*n : 3*n]
	// Every stage boundary hands the whole activation payload off once
	// per pass: price the chain's keys and bill its sent bytes once.
	// Handoffs belong to no sync class, so their cycles feed no class
	// accumulator.
	var handoff float64
	if len(d.Stages) > 1 {
		s.chainPrice = s.priceTile(s.chainPrice, s.chain.Keys, s.chainIDs, d.Handoff, 1, nil)
		s.billSends(s.chain.Sends, s.chainPrice, nil)
	}
	for i := range d.Stages {
		st := &d.Stages[i]
		lo, hi := st.Chips.Lo, st.Chips.Hi
		if i > 0 {
			// The handoff executes its routed segment serially, each hop
			// starting when its sender holds the activations: one direct
			// hop on fully wired networks, multi-hop through surviving
			// chips when the direct edge is missing.
			s.chunks = 1
			clear(s.has[:n])
			s.has[lo-1] = ready[lo-1]
			ready[lo] = s.broadcast(s.chain.Segment(lo-1), s.chainPrice, &handoff, relayed)
		}
		for b := 0; b < st.Blocks; b++ {
			copy(blockStart[lo:hi], ready[lo:hi])
			for _, step := range st.Steps {
				if step.Sync != nil {
					ready = s.sync(step.Sync, ready)
					continue
				}
				for c := lo; c < hi; c++ {
					cd := d.Chips[c]
					off := s.priceOff[c]
					for _, ph := range cd.Phases[:step.Phase] {
						off += len(ph.Ops)
					}
					ready[c] = s.phase(c, ready[c], &cd.Phases[step.Phase], s.prices[off:])
				}
			}
			// Double-buffered prefetch of the next block's weights:
			// energy always, runtime only under the exposure ablation.
			for c := lo; c < hi; c++ {
				cd := d.Chips[c]
				if cd.Tier != deploy.TierDoubleBuffered {
					continue
				}
				dur := s.l3Background(c, blockStart[c], cd.StreamBytesPerBlock)
				if d.Options.PrefetchExposed {
					if exposed := dur - (ready[c] - blockStart[c]); exposed > 0 {
						s.stats[c].L3Cycles += exposed
						ready[c] += exposed
						if ready[c] > s.stats[c].End {
							s.stats[c].End = ready[c]
						}
					}
				}
			}
		}
	}
	return maxAll(ready)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func maxAll(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
