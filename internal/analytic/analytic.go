// Package analytic provides a closed-form latency estimator for
// tensor-parallel deployments — an independent derivation of what the
// event-driven simulator computes. The two agreeing within a tolerance
// is a cross-validation of both models; the estimator is also orders
// of magnitude cheaper for coarse design-space sweeps.
package analytic

import (
	"fmt"

	"mcudist/internal/deploy"
	"mcudist/internal/interconnect"
	"mcudist/internal/kernels"
	"mcudist/internal/partition"
)

// Estimate returns a closed-form per-forward cycle estimate for a
// tensor-parallel deployment: per-block phase times (slowest chip),
// plus two collective synchronizations per block, serialized across L
// blocks.
func Estimate(d *deploy.Deployment) (float64, error) {
	if d.Plan.Strategy != partition.TensorParallel {
		return 0, fmt.Errorf("analytic: estimator supports the tensor-parallel strategy, got %v", d.Plan.Strategy)
	}
	tree, err := interconnect.BuildTree(d.Plan.Chips, d.HW.GroupSize)
	if err != nil {
		return 0, err
	}

	var mhsaMax, fcMax, blockLoadMax float64
	for c := range d.Chips {
		cd := &d.Chips[c]
		mhsa := phaseTime(d, cd.MHSA, cd.ExposedMHSABytes)
		fc := phaseTime(d, cd.FC, cd.ExposedFCBytes)
		if mhsa > mhsaMax {
			mhsaMax = mhsa
		}
		if fc > fcMax {
			fcMax = fc
		}
		if cd.Tier == deploy.TierResidentSingle {
			load := kernels.DMATime(cd.BlockLoadBytes, d.HW.Chip.DMAL3L2BytesPerCycle,
				d.HW.Chip.DMAL3L2SetupCycles, int64(d.HW.Chip.L1Bytes/2))
			if load > blockLoadMax {
				blockLoadMax = load
			}
		}
	}

	sync := syncTime(d, tree)
	blocks := float64(d.Chips[0].Blocks)
	perBlock := blockLoadMax + mhsaMax + sync + fcMax + sync

	total := blocks * perBlock
	if d.Options.PrefetchExposed {
		for c := range d.Chips {
			cd := &d.Chips[c]
			if cd.Tier != deploy.TierDoubleBuffered {
				continue
			}
			prefetch := kernels.DMATime(cd.StreamBytesPerBlock, d.HW.Chip.DMAL3L2BytesPerCycle,
				d.HW.Chip.DMAL3L2SetupCycles, int64(d.HW.Chip.L1Bytes/2))
			if exposed := prefetch - perBlock; exposed > 0 {
				total += blocks * exposed
			}
		}
	}
	return total, nil
}

// phaseTime is the serialized cost of one phase on one chip: exposed
// L3 streaming, L2↔L1 tile movement, and compute.
func phaseTime(d *deploy.Deployment, ops []kernels.Cost, exposedL3 int64) float64 {
	hwp := d.HW
	l1Tile := int64(hwp.Chip.L1Bytes / 2)
	t := kernels.DMATime(exposedL3, hwp.Chip.DMAL3L2BytesPerCycle, hwp.Chip.DMAL3L2SetupCycles, l1Tile)
	for _, op := range ops {
		t += kernels.DMATime(op.TotalL2L1Bytes(), hwp.Chip.DMAL2L1BytesPerCycle, hwp.Chip.DMAL2L1SetupCycles, l1Tile)
		t += op.Cycles
	}
	return t
}

// syncTime estimates one hierarchical all-reduce + root work +
// broadcast with tile pipelining: the reduce costs one serialized
// payload per tree level (links on different levels overlap across
// tiles), the root's accumulate/normalize work runs once, and the
// pipelined broadcast trails by roughly one tile per level.
func syncTime(d *deploy.Deployment, tree *interconnect.Tree) float64 {
	depth := tree.Depth()
	if depth == 0 {
		return rootWork(d)
	}
	reduceHop := interconnect.TransferCycles(d.HW, d.ReducePayload)
	bcastTile := min(d.BcastPayload, deploy.DefaultCommTileBytes)
	bcastTrail := interconnect.TransferCycles(d.HW, bcastTile) * float64(depth)
	bcastFull := interconnect.TransferCycles(d.HW, d.BcastPayload)

	// Accumulations at each level's parent, serialized per child.
	fanIn := float64(d.HW.GroupSize - 1)
	adds := float64(depth) * fanIn * d.ReduceAdd.Cycles

	return float64(depth)*reduceHop + adds + rootWork(d) + bcastFull + bcastTrail
}

func rootWork(d *deploy.Deployment) float64 {
	var t float64
	for _, op := range d.RootSync {
		t += op.Cycles
	}
	return t
}
