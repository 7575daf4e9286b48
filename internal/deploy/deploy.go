// Package deploy is the deployment planner (the role Deeploy plays in
// the paper): given a partition plan, a hardware description, and a
// workload, it decides weight placement (which residency tier each
// chip runs in), sizes the L2 footprint, and lowers each block into
// per-chip kernel sequences plus collective operations for the
// performance simulator.
package deploy

import (
	"fmt"

	"mcudist/internal/collective"
	"mcudist/internal/hw"
	"mcudist/internal/kernels"
	"mcudist/internal/mem"
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

// ChipDeploy is the lowered program of one chip.
type ChipDeploy struct {
	Chip      int
	Tier      Tier
	Footprint mem.Footprint
	// MHSA and FC are the block-phase kernel sequences.
	MHSA []kernels.Cost
	FC   []kernels.Cost
	// MHSAStream / FCStream are the memory-hierarchy tile plans of the
	// phase sequences, index-parallel to MHSA / FC (nil entries for
	// kernels that stream no tileable weights). Populated only when
	// the platform enables the hierarchical memory model and the chip
	// runs in the streamed tier; the simulator then executes those
	// kernels tile-by-tile through the DRAM channel instead of the
	// flat exposed-bytes accounting.
	MHSAStream []*memsim.Plan
	FCStream   []*memsim.Plan
	// StreamBytesPerBlock is the weight traffic L3→L2 this chip
	// incurs per block execution in steady state (zero for
	// TierResidentAll).
	StreamBytesPerBlock int64
	// ExposedMHSABytes / ExposedFCBytes are the synchronous L3
	// transfers inside each phase under TierStreamed: the phase's
	// weight share plus the activation spill (with L2 reduced to a
	// staging buffer, every activation tensor lives in L3; tiled
	// weights force operand re-fetches).
	ExposedMHSABytes int64
	ExposedFCBytes   int64
	// BlockLoadBytes is the synchronous between-blocks weight load
	// under TierResidentSingle.
	BlockLoadBytes int64
	// Blocks is how many blocks this chip executes per forward.
	Blocks int
	// SeqRows is the number of token rows this chip processes
	// (differs per chip only under the Replicated baseline).
	SeqRows int
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

	Chips []ChipDeploy
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
	// deployments, so each distinct signature is lowered once and the
	// ChipDeploy is reused (the op slices are read-only downstream).
	// Uniform plans lower one chip instead of p.Chips.
	var split []partition.Range
	if p.Strategy == partition.Replicated {
		split = p.SeqSplit(queryRows(mode, s, batch))
	}
	seen := make(map[chipSig]int, 4)
	d.Chips = make([]ChipDeploy, 0, p.Chips)
	for chip := 0; chip < p.Chips; chip++ {
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
		if prev, ok := seen[sig]; ok {
			cd := d.Chips[prev]
			cd.Chip = chip
			d.Chips = append(d.Chips, cd)
			continue
		}
		cd, err := lowerChip(p, chip, hwp, mode, s, batch, opts)
		if err != nil {
			return nil, err
		}
		seen[sig] = len(d.Chips)
		d.Chips = append(d.Chips, cd)
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

func lowerChip(p *partition.Plan, chip int, hwp hw.Params, mode model.Mode, s, batch int, opts Options) (ChipDeploy, error) {
	tier, fp := chooseTier(p, chip, mode, s, batch, hwp)
	cd := ChipDeploy{
		Chip:      chip,
		Tier:      tier,
		Footprint: fp,
		Blocks:    p.BlocksOnChip(chip),
		SeqRows:   queryRows(mode, s, batch),
	}
	if tier != TierResidentAll {
		cd.StreamBytesPerBlock = int64(p.BlockWeightBytesOnChip(chip))
	}

	switch p.Strategy {
	case partition.TensorParallel:
		cd.MHSA = mhsaOps(p, chip, mode, s, batch, hwp)
		cd.FC = fcOps(p, chip, mode, s, batch, hwp)
	case partition.Replicated:
		rows := p.SeqSplit(queryRows(mode, s, batch))[chip].Len()
		cd.SeqRows = rows
		// The replicated baseline's block is modeled as one fused
		// phase (MHSA) plus an empty FC phase; synchronization slots
		// still apply (context exchange + output exchange).
		cd.MHSA = replicatedChipOps(p, rows, s, hwp)
		cd.FC = nil
		if rows == 0 {
			cd.StreamBytesPerBlock = 0 // idle chips do not touch weights
		}
	case partition.Pipeline:
		cd.MHSA = singleChipBlockOps(p.Config, mode, s, batch, hwp)
		cd.FC = nil
	default:
		return cd, fmt.Errorf("deploy: unknown strategy %v", p.Strategy)
	}
	if err := attachL3Exposure(&cd, hwp, opts); err != nil {
		return cd, err
	}
	return cd, nil
}

// attachL3Exposure derives the synchronous L3 traffic of the chip from
// its tier: streamed chips move each phase's weights plus all
// activations through L3; resident-single chips reload one block's
// weights between blocks. Under the hierarchical memory model,
// streamed weights are instead planned tile-by-tile through the DRAM
// channel (MHSAStream/FCStream) and the exposed byte counts carry only
// the activation spill.
func attachL3Exposure(cd *ChipDeploy, hwp hw.Params, opts Options) error {
	switch cd.Tier {
	case TierStreamed:
		if hwp.Mem.Enabled() {
			ch := memsim.ChannelOf(hwp)
			var err error
			if cd.MHSAStream, err = streamPlans(ch, hwp.Mem, cd.MHSA); err != nil {
				return err
			}
			if cd.FCStream, err = streamPlans(ch, hwp.Mem, cd.FC); err != nil {
				return err
			}
			if !opts.NoActivationSpill {
				cd.ExposedMHSABytes = hierSpillBytes(cd.MHSA, cd.MHSAStream)
				cd.ExposedFCBytes = hierSpillBytes(cd.FC, cd.FCStream)
			}
			return nil
		}
		l1Tile := int64(hwp.Chip.L1Bytes / 2)
		mw, fw := phaseWeightBytes(cd.MHSA), phaseWeightBytes(cd.FC)
		cd.ExposedMHSABytes = weightShare(cd.StreamBytesPerBlock, mw, mw+fw)
		cd.ExposedFCBytes = weightShare(cd.StreamBytesPerBlock, fw, mw+fw)
		if !opts.NoActivationSpill {
			cd.ExposedMHSABytes += spillBytes(cd.MHSA, l1Tile)
			cd.ExposedFCBytes += spillBytes(cd.FC, l1Tile)
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

// hierSpillBytes is spillBytes under the hierarchical model: the
// activation re-fetch count of a planned GEMM is its actual column
// pass count (each N-tile group re-reads the M×K input slice), and
// unplanned kernels keep the stage-in/stage-out minimum.
func hierSpillBytes(ops []kernels.Cost, plans []*memsim.Plan) int64 {
	var total int64
	for i := range ops {
		refetch := int64(2)
		if plans != nil && plans[i] != nil {
			if p := int64(plans[i].ActPasses) + 1; p > refetch {
				refetch = p
			}
		}
		total += ops[i].ActInBytes*refetch + ops[i].ActOutBytes
	}
	return total
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
