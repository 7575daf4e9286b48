// Package deploy is the deployment planner (the role Deeploy plays in
// the paper): given a partition plan, a hardware description, and a
// workload, it decides weight placement (which residency tier each
// chip runs in), sizes the L2 footprint, and lowers every strategy to
// one block program for the performance simulator. The Deployment is
// the simulator's only description of the work: each phase states its
// kernels and the L3 bytes it moves, chips of equal signature share one
// program, and the stages order phases, syncs and handoffs.
package deploy

import (
	"fmt"
	"slices"

	"mcudist/internal/collective"
	"mcudist/internal/hw"
	"mcudist/internal/kernels"
	"mcudist/internal/memsim"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// Options tune planner behaviour; the zero value is the paper's
// accounting.
type Options struct {
	// PrefetchExposed charges the double-buffered weight prefetch's
	// residual time (transfer beyond the block's other work) to
	// runtime instead of hiding it — the accounting ablation.
	PrefetchExposed bool
	// NoActivationSpill disables the streamed-tier activation spill
	// to L3 — the ablation that isolates how much of the single-chip
	// penalty comes from L3-resident intermediate tensors.
	NoActivationSpill bool
	// DegradedLinkFactor, when positive, scales the bandwidth of
	// every link touching DegradedLinkChip (failure injection: 0.25
	// models a link renegotiated to quarter rate; 0 disables).
	DegradedLinkFactor float64
	// DegradedLinkChip selects the chip whose links degrade.
	DegradedLinkChip int
	// SyncPlan binds synchronization classes (prefill vs decode, MHSA
	// vs FFN, the replicated exchanges) to interconnect topologies,
	// overriding HW.Topology per class — the per-sync collective plan.
	// The zero value executes every synchronization on the run
	// topology, byte-identical to the single-topology simulator. It
	// rides in Options (a comparable value) so it reaches both the
	// evalpool cache key and the simulator without extra plumbing. The
	// simulator lowers the bindings of the deployment's Classes; a
	// program without classes (the pipeline's) binds none of them.
	SyncPlan collective.Plan
	// StragglerFactor, when positive, scales one chip's compute
	// throughput (thermal throttling / process variation: 0.5 runs
	// StragglerChip at half speed; 0 disables). Under the
	// tensor-parallel scheme every synchronization waits for the
	// straggler.
	StragglerFactor float64
	// StragglerChip selects the throttled chip.
	StragglerChip int
}

// ChipDeploy is the lowered program of one chip, shared by every chip
// of equal signature.
type ChipDeploy struct {
	Tier Tier
	// Phases are the block's phases in program order: MHSA then FC
	// under tensor-parallel, one whole-block phase under the replicated
	// and pipeline strategies. A stage's phase steps index them.
	Phases []Phase
	// StreamBytesPerBlock is the weight traffic L3→L2 this chip
	// incurs per block execution in steady state (zero for
	// TierResidentAll and for a chip with no kernels).
	StreamBytesPerBlock int64
	// Blocks is how many blocks this chip executes per forward.
	Blocks int
}

// Phase is one block phase of a chip's program: its kernel sequence
// and the synchronous L3 traffic the simulator moves before the
// phase's compute.
type Phase struct {
	Ops []kernels.Cost
	// Stream holds the memory-hierarchy tile plans of Ops,
	// index-parallel to it (nil entries for kernels that stream no
	// tileable weights). Populated only when the platform enables the
	// hierarchical memory model and the chip runs in the streamed tier;
	// the simulator then executes those kernels tile-by-tile through
	// the DRAM channel.
	Stream []*memsim.Plan
	// L3Weights is the weight load before the phase: under
	// TierStreamed on the flat memory model, the phase's share of the
	// block's streamed weights (the hierarchical model streams them
	// through Stream instead); under TierResidentSingle, on the first
	// phase, the whole block's weights, loaded between blocks.
	L3Weights int64
	// L3Spill is the phase's activation spill under TierStreamed: with
	// L2 reduced to a staging buffer every activation tensor lives in
	// L3, and tiled weights force operand re-fetches.
	L3Spill int64
}

// Stage is one stretch of the block program: the chips in Chips run
// Steps, in order, once per block, Blocks times. Stages run in order
// over consecutive chip ranges; between two of them the activations
// move along the pipeline chain (Deployment.Handoff).
type Stage struct {
	Chips  partition.Range
	Blocks int
	Steps  []Step
}

// Step is one step of a stage: a collective synchronization over every
// chip when Sync is set, otherwise phase Phase of each of the stage's
// chips.
type Step struct {
	Phase int
	Sync  *Sync
}

// Sync is one collective synchronization and everything it bills: its
// class (which picks its schedule), the per-hop reduce and broadcast
// payloads, the root's serial work between the reduce and the
// broadcast, and the accumulation a receiver runs per reduce hop.
type Sync struct {
	Class         collective.SyncClass
	ReducePayload int64
	BcastPayload  int64
	RootWork      []kernels.Cost
	Add           kernels.Cost
}

// Deployment is the complete lowered program for the multi-chip
// system.
type Deployment struct {
	Plan    *partition.Plan
	HW      hw.Params
	Mode    model.Mode
	SeqLen  int
	Options Options
	// Batch is the decode micro-batch width (1 = the paper's
	// single-session step): how many concurrent sessions share this
	// lowering's weight reads, kernel launches, and collectives.
	Batch int

	// Chips holds each chip's program, indexed by chip id. Chips of
	// equal signature point at one program; programs are read-only.
	Chips []*ChipDeploy
	// Stages is the block program every chip follows, in order.
	Stages []Stage
	// Classes lists the strategy's synchronization classes in the mode
	// (collective.ActiveClasses), even where no sync step runs: the
	// simulator lowers the plan's bindings for them, or a bare schedule
	// when there are none.
	Classes []collective.SyncClass
	// Handoff is the activation payload each stage boundary hands
	// along the pipeline chain.
	Handoff int64
}

// NewBatched lowers a partition plan for a decode micro-batch of
// `batch` concurrent sessions (each at context length s); batch <= 1
// is the paper's single-session step. Batching widens every
// GEMM's row dimension while weight bytes, kernel setup, and per-hop
// link setup stay fixed — the continuous-batching amortization — and
// multiplies the resident KV footprint, which is the pressure that
// eventually pushes chips off the resident tiers.
func NewBatched(p *partition.Plan, hwp hw.Params, mode model.Mode, s, batch int, opts Options) (*Deployment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := hwp.Validate(); err != nil {
		return nil, err
	}
	if s <= 0 {
		return nil, fmt.Errorf("deploy: sequence length %d must be positive", s)
	}
	if batch < 1 {
		batch = 1
	}
	if batch > 1 && mode != model.Autoregressive {
		return nil, fmt.Errorf("deploy: micro-batch width %d needs autoregressive mode", batch)
	}
	if mode == model.Autoregressive && p.Config.Arch != model.Decoder {
		return nil, fmt.Errorf("deploy: autoregressive mode needs a decoder, %s is an %s",
			p.Config.Name, p.Config.Arch)
	}
	d := &Deployment{
		Plan:    p,
		HW:      hwp,
		Mode:    mode,
		SeqLen:  s,
		Options: opts,
		Batch:   batch,
		Classes: collective.ActiveClasses(p.Strategy, mode),
	}

	// The strategy fixes the program: its stages with every payload
	// they move, and how a chip's phases are built.
	cfg, sq := p.Config, queryRows(mode, s, batch)
	root, add := rootSyncOps(cfg, mode, s, batch, hwp), kernels.ReduceAdd(hwp, sq, cfg.E, elem(cfg))
	all := partition.Range{Lo: 0, Hi: p.Chips}
	var phases func(chip int) []Phase
	var split []partition.Range
	switch p.Strategy {
	case partition.TensorParallel:
		// Two synchronizations per block, after the MHSA and after the
		// FC, each reducing the partial outputs and broadcasting the
		// root's normalized result.
		red, bc := p.ReducePayloadBytes(sq), p.BcastPayloadBytes(sq)
		syncs := []Sync{
			{Class: d.Classes[0], ReducePayload: red, BcastPayload: bc, RootWork: root, Add: add},
			{Class: d.Classes[1], ReducePayload: red, BcastPayload: bc, RootWork: root, Add: add},
		}
		d.Stages = []Stage{{Chips: all, Blocks: p.BlocksOnChip(0),
			Steps: []Step{{Phase: 0}, {Sync: &syncs[0]}, {Phase: 1}, {Sync: &syncs[1]}}}}
		phases = func(chip int) []Phase {
			return []Phase{
				{Ops: mhsaOps(p, chip, mode, s, batch, hwp)},
				{Ops: fcOps(p, chip, mode, s, batch, hwp)},
			}
		}
	case partition.Replicated:
		split = p.SeqSplit(sq)
		steps := []Step{{Phase: 0}}
		if min(p.Chips, sq) > 1 {
			// More than one chip has rows, so two synchronizations per
			// block: the K/V context exchange (each chip's keys and
			// values for its rows) and the output exchange (its output
			// rows).
			rows := (sq + p.Chips - 1) / p.Chips
			kv := int64(rows) * int64(2*cfg.P) * int64(cfg.ActBytes)
			out := p.BcastPayloadBytes(rows)
			syncs := []Sync{
				{Class: d.Classes[0], ReducePayload: kv, BcastPayload: kv, Add: add},
				{Class: d.Classes[1], ReducePayload: out, BcastPayload: out, Add: add},
			}
			steps = append(steps, Step{Sync: &syncs[0]}, Step{Sync: &syncs[1]})
		}
		d.Stages = []Stage{{Chips: all, Blocks: p.BlocksOnChip(0), Steps: steps}}
		phases = func(chip int) []Phase {
			return []Phase{{Ops: replicatedChipOps(p, split[chip].Len(), s, hwp)}}
		}
	case partition.Pipeline:
		// One stage per chip over its blocks; every boundary hands the
		// whole activation tensor on.
		d.Handoff = p.BcastPayloadBytes(sq)
		steps := []Step{{Phase: 0}}
		d.Stages = make([]Stage, p.Chips)
		for c := range d.Stages {
			d.Stages[c] = Stage{Chips: partition.Range{Lo: c, Hi: c + 1}, Blocks: p.BlocksOnChip(c), Steps: steps}
		}
		phases = func(chip int) []Phase {
			// The whole block on one chip: the plan gives every chip
			// full widths, and the root's work after each sublayer runs
			// in the phase.
			ops := append(mhsaOps(p, chip, mode, s, batch, hwp), root...)
			ops = append(append(ops, fcOps(p, chip, mode, s, batch, hwp)...), root...)
			return []Phase{{Ops: ops}}
		}
	default:
		return nil, fmt.Errorf("deploy: unknown strategy %v", p.Strategy)
	}

	// Chips with the same plan-level shares lower to identical
	// programs, so each distinct signature is lowered once and its
	// chips share the program (read-only downstream). Uniform plans
	// lower one chip instead of p.Chips.
	seen := make(map[chipSig]*ChipDeploy, 4)
	d.Chips = make([]*ChipDeploy, p.Chips)
	for chip := range d.Chips {
		sig := chipSig{
			pslice:      p.PSlice(chip),
			kvw:         p.KVWidth(chip),
			fw:          p.FWidth(chip),
			blocks:      p.BlocksOnChip(chip),
			blockWeight: p.BlockWeightBytesOnChip(chip),
			kvPerBlock:  p.KVBytesPerBlockOnChip(chip, s),
		}
		if split != nil {
			sig.rows = split[chip].Len()
		}
		cd, ok := seen[sig]
		if !ok {
			var err error
			if cd, err = lowerChip(p, chip, hwp, mode, s, batch, opts, phases(chip)); err != nil {
				return nil, err
			}
			seen[sig] = cd
		}
		d.Chips[chip] = cd
	}
	return d, nil
}

// chipSig captures every per-chip input of lowerChip: the chip's
// tensor-parallel shares, its block placement and weight bytes, its
// per-block KV requirement, and (replicated strategy only) its
// sequence-split rows. Equal signatures lower identically.
type chipSig struct {
	pslice, kvw, fw, blocks, blockWeight, kvPerBlock, rows int
}

// lowerChip places one chip's phases in the tier its L2 budget allows.
// A chip with no kernels (an idle replicated chip) touches no weights.
func lowerChip(p *partition.Plan, chip int, hwp hw.Params, mode model.Mode, s, batch int, opts Options, phases []Phase) (*ChipDeploy, error) {
	tier, _ := chooseTier(p, chip, mode, s, batch, hwp)
	cd := &ChipDeploy{
		Tier:   tier,
		Phases: phases,
		Blocks: p.BlocksOnChip(chip),
	}
	if tier != TierResidentAll && slices.ContainsFunc(phases, func(ph Phase) bool { return len(ph.Ops) > 0 }) {
		cd.StreamBytesPerBlock = int64(p.BlockWeightBytesOnChip(chip))
	}
	if err := attachL3Exposure(cd, hwp, opts); err != nil {
		return nil, err
	}
	return cd, nil
}

// attachL3Exposure derives the synchronous L3 traffic of the chip from
// its tier: streamed chips move each phase's weight share plus all
// activations through L3; resident-single chips reload one block's
// weights between blocks, before the first phase. Under the
// hierarchical memory model, streamed weights are instead planned
// tile-by-tile through the DRAM channel (Phase.Stream), and a phase's
// L3 bytes are only its spill.
func attachL3Exposure(cd *ChipDeploy, hwp hw.Params, opts Options) error {
	switch cd.Tier {
	case TierStreamed:
		if hwp.Mem.Enabled() {
			ch := memsim.ChannelOf(hwp)
			for k := range cd.Phases {
				ph := &cd.Phases[k]
				var err error
				if ph.Stream, err = streamPlans(ch, hwp.Mem, ph.Ops); err != nil {
					return err
				}
				if !opts.NoActivationSpill {
					for i, op := range ph.Ops {
						var plan *memsim.Plan
						if ph.Stream != nil {
							plan = ph.Stream[i]
						}
						ph.L3Spill += SpillBytes(op, plan)
					}
				}
			}
			return nil
		}
		l1Tile := int64(hwp.Chip.L1Bytes / 2)
		var block int64
		for _, ph := range cd.Phases {
			block += phaseWeightBytes(ph.Ops)
		}
		for k := range cd.Phases {
			ph := &cd.Phases[k]
			ph.L3Weights = weightShare(cd.StreamBytesPerBlock, phaseWeightBytes(ph.Ops), block)
			if !opts.NoActivationSpill {
				ph.L3Spill = spillBytes(ph.Ops, l1Tile)
			}
		}
	case TierResidentSingle:
		cd.Phases[0].L3Weights = cd.StreamBytesPerBlock
	}
	return nil
}

// streamPlans builds the index-parallel tile plans of a phase's kernel
// sequence: one plan per weight-streaming GEMM (family tiling resolved
// per op), nil for everything else. Returns nil when the phase streams
// no tileable weights at all.
func streamPlans(ch memsim.Channel, m hw.MemHierarchy, ops []kernels.Cost) ([]*memsim.Plan, error) {
	var plans []*memsim.Plan
	for i := range ops {
		g, ok := memsim.GEMMOf(ops[i])
		if !ok {
			continue
		}
		n, k := m.TileFor(ops[i].FFN)
		pl, err := memsim.PlanGEMM(ch, g, memsim.Tiling{K: k, N: n})
		if err != nil {
			return nil, fmt.Errorf("deploy: tiling %s kernel %dx%dx%d: %w",
				ops[i].Name, g.M, g.K, g.N, err)
		}
		if plans == nil {
			plans = make([]*memsim.Plan, len(ops))
		}
		plans[i] = pl
	}
	return plans, nil
}

// SpillBytes is spillBytes under the hierarchical model, for one
// kernel of a streamed chip given its tile plan (nil for a kernel that
// is not planned). A planned GEMM reads its input once to
// stage it and once per column pass (each N-tile group re-reads the
// M×K input slice), and at least twice; an unplanned kernel reads its
// input twice. The output is written back once.
func SpillBytes(op kernels.Cost, plan *memsim.Plan) int64 {
	refetch := int64(2)
	if plan != nil {
		if p := int64(plan.ActPasses) + 1; p > refetch {
			refetch = p
		}
	}
	return op.ActInBytes*refetch + op.ActOutBytes
}

func phaseWeightBytes(ops []kernels.Cost) int64 {
	var total int64
	for _, op := range ops {
		total += op.WeightBytes
	}
	return total
}

func weightShare(total, part, sum int64) int64 {
	if sum == 0 {
		return 0
	}
	return total * part / sum
}

// spillBytes is the extra L3 traffic of running a kernel list with
// L3-resident activations: each input operand is staged through L2
// once and re-fetched once per weight tile beyond the first (tiled
// GEMM re-reads its activation operand per output tile), and outputs
// are written back once.
func spillBytes(ops []kernels.Cost, l1Tile int64) int64 {
	var total int64
	for _, op := range ops {
		refetch := int64(2)
		if op.WeightBytes > 0 && l1Tile > 0 {
			if t := (op.WeightBytes+l1Tile-1)/l1Tile + 1; t > refetch {
				refetch = t
			}
		}
		total += op.ActInBytes*refetch + op.ActOutBytes
	}
	return total
}

// WorstTier returns the weakest placement across chips — the tier
// that governs whether the system as a whole avoids exposed off-chip
// traffic.
func (d *Deployment) WorstTier() Tier {
	worst := TierResidentAll
	for _, c := range d.Chips {
		if c.Tier < worst {
			worst = c.Tier
		}
	}
	return worst
}
