package main

import (
	"fmt"
	"math/rand/v2"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/explore"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// pointModel is one model axis value of the sweep point space, with
// the modes and memory tiers it is legal on.
type pointModel struct {
	cfg model.Config
	// promptOnly models have no decoder (MobileBERT).
	promptOnly bool
	// dramOnly models do not fit the flat on-chip model (EdgeLlama).
	dramOnly bool
	chips    []int
}

// sweepModels is the model axis: the paper's two TinyLlama shapes,
// MobileBERT (prompt only) and the bigger-than-SRAM EdgeLlama (LPDDR5
// only), each with every chip count the tensor-parallel plan accepts up
// to 64.
var sweepModels = func() []pointModel {
	ms := []pointModel{
		{cfg: model.TinyLlama42M()},
		{cfg: model.TinyLlamaScaled64()},
		{cfg: model.MobileBERT512(), promptOnly: true},
		{cfg: model.EdgeLlama1B(), dramOnly: true},
	}
	for i := range ms {
		ms[i].chips = explore.LegalChipCounts(ms[i].cfg, 64)
	}
	return ms
}()

// hybridPlan is the autotuned 64-chip session plan; the other plan
// axis value is the zero plan (every sync on the run topology).
var hybridPlan = func() collective.Plan {
	p, err := collective.ParsePlan("prefill=ring,decode=tree")
	if err != nil {
		panic(err)
	}
	return p
}()

var (
	uniformNet   = hw.UniformNetwork(hw.MIPI())
	clusteredNet = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
)

// sweepPoints returns n distinct evaluation points of the sweep point
// space, a pure function of seed.
//
// A point's host cost is dominated by its shape — model, topology,
// chip count, network, plan, mode, memory tier — through the schedule
// lowering and the event count, and roughly linear in its sequence
// length and batch width. So that seeds change the points but not the
// cost of a rep, the shapes form a fixed design and the seed draws the
// rest: the points split evenly over the model x topology strata; a
// stratum's slots take chip counts spread over the legal range and
// cycle through a balanced half-fraction of the four binary axes; and
// each slot holds an antithetic pair, one point at a seeded sequence
// length and batch width, its twin at the mirrored ones (272-s, 9-b),
// so the pair's cost barely depends on the draw.
//
// Points come in design order, stratum by stratum, as a sweep over a
// grid would issue them. Twins are adjacent, so two clients mostly run
// one heavy lowering at a time; a shuffled order lets heavy points from
// different strata overlap at random, which moves the process's peak
// RSS by up to a third from run to run.
func sweepPoints(seed uint64, n int) []evalpool.Point {
	r := rand.New(rand.NewPCG(seed, 0x6d637562656e6368))
	topos := hw.Topologies()
	strata := len(sweepModels) * len(topos)
	seen := make(map[evalpool.Point]bool, n)
	out := make([]evalpool.Point, 0, n)
	add := func(pt evalpool.Point) {
		seen[pt] = true
		out = append(out, pt)
	}
	for s := 0; s < strata; s++ {
		m := sweepModels[s/len(topos)]
		// Stratum s takes points s, s+strata, s+2*strata, ... of n.
		k := (n - s + strata - 1) / strata
		slots := (k + 1) / 2
		for j := 0; j < slots; j++ {
			// Slot j takes the top of the j-th of slots equal bins of the
			// legal chip counts (8, 16, ..., 64 for eight slots of 64).
			chips := m.chips[((j+1)*len(m.chips)+slots-1)/slots-1]
			base := shapeOf(m, topos[s%len(topos)], chips, j)
			for attempt := 0; ; attempt++ {
				if attempt == 1000 {
					panic(fmt.Sprintf("sweepPoints: stratum %d slot %d has no distinct draw left", s, j))
				}
				seq := 16 + r.IntN(240) // 16..255; the twin's 272-seq is 17..256
				batch := 1 + r.IntN(8)
				a, b := base, base
				a.Workload.SeqLen, b.Workload.SeqLen = seq, 272-seq
				if base.Workload.Mode == model.Autoregressive {
					a.Workload.Batch, b.Workload.Batch = batch, 9-batch
				}
				if a == b || seen[a] || 2*j+1 < k && seen[b] {
					continue
				}
				add(a)
				if 2*j+1 < k {
					add(b)
				}
				break
			}
		}
	}
	return out
}

// shapeOf is slot j's shape: network, plan, mode and memory tier follow
// a half-fraction of the 2^4 design (the memory bit is the parity of the
// other three), so over any eight consecutive slots each axis value
// appears equally often, at low and high chip counts alike. Axes a model
// cannot vary stay at its legal value.
func shapeOf(m pointModel, topo hw.Topology, chips, j int) evalpool.Point {
	net := j & 1
	plan := j >> 1 & 1
	mode := (j>>2 ^ j) & 1
	mem := net ^ plan ^ mode
	sys := core.DefaultSystem(chips)
	sys.HW.Topology = topo
	sys.HW.Network = uniformNet
	if net == 1 {
		sys.HW.Network = clusteredNet
	}
	if plan == 1 {
		sys.Options.SyncPlan = hybridPlan
	}
	if mem == 1 || m.dramOnly {
		sys.HW.Mem = hw.LPDDR5()
	}
	wl := core.Workload{Model: m.cfg, Mode: model.Prompt}
	if mode == 1 && !m.promptOnly {
		wl.Mode = model.Autoregressive
	}
	return evalpool.Point{System: sys, Workload: wl}
}
