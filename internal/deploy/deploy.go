// Package deploy is the deployment planner (the role Deeploy plays in
// the paper): given a partition plan, a hardware description, and a
// workload, it decides weight placement (which residency tier each
// chip runs in), sizes the L2 footprint, and lowers each block into
// per-chip programs plus collective operations for the performance
// simulator. The Deployment is the simulator's only description of
// the work: each phase states its kernels and the L3 bytes it moves,
// and chips of equal signature share one program.
package deploy

import (
	"fmt"

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
	// evalpool cache key and the simulator without extra plumbing; the
	// pipeline strategy has no collective synchronizations and ignores
	// it.
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
	// MHSA and FC are the block's two phases.
	MHSA Phase
	FC   Phase
	// StreamBytesPerBlock is the weight traffic L3→L2 this chip
	// incurs per block execution in steady state (zero for
	// TierResidentAll).
	StreamBytesPerBlock int64
	// BlockLoadBytes is the synchronous between-blocks weight load
	// under TierResidentSingle.
	BlockLoadBytes int64
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
	// L3Weights is the phase's share of the block's streamed weights
	// under TierStreamed on the flat memory model (the hierarchical
	// model streams them through Stream instead).
	L3Weights int64
	// L3Spill is the phase's activation spill under TierStreamed: with
	// L2 reduced to a staging buffer every activation tensor lives in
	// L3, and tiled weights force operand re-fetches.
	L3Spill int64
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
	// ReduceAdd is the per-received-tile accumulation cost during the
	// all-reduce (tensor-parallel and replicated strategies).
	ReduceAdd kernels.Cost
	// RootSync is the root's serial residual+norm+requant work per
	// synchronization.
	RootSync []kernels.Cost
	// ReducePayload/BcastPayload are per-hop collective payloads.
	ReducePayload int64
	BcastPayload  int64
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
		Plan:          p,
		HW:            hwp,
		Mode:          mode,
		SeqLen:        s,
		Options:       opts,
		Batch:         batch,
		ReduceAdd:     reduceAddOp(p.Config, mode, s, batch, hwp),
		RootSync:      rootSyncOps(p.Config, mode, s, batch, hwp),
		ReducePayload: p.ReducePayloadBytes(queryRows(mode, s, batch)),
		BcastPayload:  p.BcastPayloadBytes(queryRows(mode, s, batch)),
	}

	// Chips with the same plan-level shares lower to identical
	// programs, so each distinct signature is lowered once and its
	// chips share the program (read-only downstream). Uniform plans
	// lower one chip instead of p.Chips.
	var split []partition.Range
	if p.Strategy == partition.Replicated {
		split = p.SeqSplit(queryRows(mode, s, batch))
	}
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
			if cd, err = lowerChip(p, chip, hwp, mode, s, batch, opts); err != nil {
				return nil, err
			}
			seen[sig] = cd
		}
		d.Chips[chip] = cd
	}
	return d, nil
}

// QueryRows is the number of token rows one forward processes: the
// decode micro-batch width in autoregressive mode, S in prompt mode.
func (d *Deployment) QueryRows() int { return queryRows(d.Mode, d.SeqLen, d.Batch) }

// chipSig captures every per-chip input of lowerChip: the chip's
// tensor-parallel shares, its block placement and weight bytes, its
// per-block KV requirement, and (replicated strategy only) its
// sequence-split rows. Equal signatures lower identically.
type chipSig struct {
	pslice, kvw, fw, blocks, blockWeight, kvPerBlock, rows int
}

func lowerChip(p *partition.Plan, chip int, hwp hw.Params, mode model.Mode, s, batch int, opts Options) (*ChipDeploy, error) {
	tier, _ := chooseTier(p, chip, mode, s, batch, hwp)
	cd := &ChipDeploy{
		Tier:   tier,
		Blocks: p.BlocksOnChip(chip),
	}
	if tier != TierResidentAll {
		cd.StreamBytesPerBlock = int64(p.BlockWeightBytesOnChip(chip))
	}

	switch p.Strategy {
	case partition.TensorParallel:
		cd.MHSA.Ops = mhsaOps(p, chip, mode, s, batch, hwp)
		cd.FC.Ops = fcOps(p, chip, mode, s, batch, hwp)
	case partition.Replicated:
		rows := p.SeqSplit(queryRows(mode, s, batch))[chip].Len()
		// The replicated baseline's block is modeled as one fused
		// phase (MHSA) plus an empty FC phase; synchronization slots
		// still apply (context exchange + output exchange).
		cd.MHSA.Ops = replicatedChipOps(p, rows, s, hwp)
		if rows == 0 {
			cd.StreamBytesPerBlock = 0 // idle chips do not touch weights
		}
	case partition.Pipeline:
		cd.MHSA.Ops = singleChipBlockOps(p.Config, mode, s, batch, hwp)
	default:
		return nil, fmt.Errorf("deploy: unknown strategy %v", p.Strategy)
	}
	if err := attachL3Exposure(cd, hwp, opts); err != nil {
		return nil, err
	}
	return cd, nil
}

// attachL3Exposure derives the synchronous L3 traffic of the chip from
// its tier: streamed chips move each phase's weight share plus all
// activations through L3; resident-single chips reload one block's
// weights between blocks. Under the hierarchical memory model,
// streamed weights are instead planned tile-by-tile through the DRAM
// channel (Phase.Stream), and a phase's L3 bytes are only its spill.
func attachL3Exposure(cd *ChipDeploy, hwp hw.Params, opts Options) error {
	switch cd.Tier {
	case TierStreamed:
		phases := [2]*Phase{&cd.MHSA, &cd.FC}
		if hwp.Mem.Enabled() {
			ch := memsim.ChannelOf(hwp)
			for _, ph := range phases {
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
		mw, fw := phaseWeightBytes(cd.MHSA.Ops), phaseWeightBytes(cd.FC.Ops)
		cd.MHSA.L3Weights = weightShare(cd.StreamBytesPerBlock, mw, mw+fw)
		cd.FC.L3Weights = weightShare(cd.StreamBytesPerBlock, fw, mw+fw)
		if !opts.NoActivationSpill {
			for _, ph := range phases {
				ph.L3Spill = spillBytes(ph.Ops, l1Tile)
			}
		}
	case TierResidentSingle:
		cd.BlockLoadBytes = cd.StreamBytesPerBlock
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
