package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/deploy"
	"mcudist/internal/energy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
)

// reportDigests pins the sha256 of %+v of the whole report in its v3
// shape (v3Report) — per-chip counters, per-class link splits, the
// per-class sync and energy split and energy included — on
// the paths golden_test.go (uniform network, no faults) does not
// reach: clustered networks, whose two link classes alternate along
// the ring; a degraded link; a straggler; a per-sync collective plan;
// the pipeline, whose bare schedule interns the zero link class ahead
// of its chain's classes; the DRAM tier, whose streamed GEMMs run
// tile by tile (per-family, ragged and default tilings, a shallow
// two-bank and a 1<<20-deep prefetch engine, a straggler); the
// replicated exchanges; a multi-tile payload; and two schedules
// sharing links under a degraded link and a straggler. Any drift in
// any counter's bits trips them.
var reportDigests = []struct {
	name   string
	sys    func() System
	wl     Workload
	digest string
}{
	{
		name: "scaled-prompt-64-ring-clustered",
		sys: func() System {
			s := DefaultSystem(64)
			s.HW.Topology = hw.TopoRing
			s.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
			return s
		},
		wl:     Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt},
		digest: "9d558c36351195b25b070e576d1e2aaa8ebc958a5d2c0919fc3761e31b361fa9",
	},
	{
		name: "scaled-prompt-64-fc-clustered",
		sys: func() System {
			s := DefaultSystem(64)
			s.HW.Topology = hw.TopoFullyConnected
			s.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
			return s
		},
		wl:     Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt},
		digest: "1727b21164560c9242eb9398ed2a77152317d65b4fd0663832d514276981c2a7",
	},
	{
		name: "tinyllama-prompt-8-ring-degraded",
		sys: func() System {
			s := DefaultSystem(8)
			s.HW.Topology = hw.TopoRing
			s.Options.DegradedLinkChip, s.Options.DegradedLinkFactor = 3, 0.25
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Prompt},
		digest: "b06f550c9952bca60514418b4c2774e3072a558c95ba34283b7f826787a18cf3",
	},
	{
		name: "tinyllama-ar-8-ring-straggler",
		sys: func() System {
			s := DefaultSystem(8)
			s.HW.Topology = hw.TopoRing
			s.Options.StragglerChip, s.Options.StragglerFactor = 5, 0.5
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive},
		digest: "2295259caa6ac865e880f2ca81fc2fa4c9ab2ddd4ceb2a9afbc39b978465c7a6",
	},
	{
		name: "scaled-prompt-64-plan-prefill-ring",
		sys: func() System {
			s := DefaultSystem(64)
			plan, err := collective.ParsePlan("prefill=ring,decode=tree")
			if err != nil {
				panic(err)
			}
			s.Options.SyncPlan = plan
			return s
		},
		wl:     Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt},
		digest: "ddab2aa9f89770b18430ae0f8c78362b7bc673b8ecb1a343f95c33e89fa997e3",
	},
	{
		name: "tinyllama-ar-8-pipeline",
		sys: func() System {
			s := DefaultSystem(8)
			s.Strategy = partition.Pipeline
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive},
		digest: "13fadda65d7432e1e5fd55641ac4342d72e892350b5dd283a450716ac7629bb4",
	},
	{
		name: "edgellama-ar-8-dram-tiled",
		sys: func() System {
			s := DefaultSystem(8)
			s.HW.Mem = hw.LPDDR5()
			s.HW.Mem.TileK, s.HW.Mem.TileN = 32, 352
			s.HW.Mem.FFNTileK, s.HW.Mem.FFNTileN = 32, 512
			return s
		},
		wl:     Workload{Model: model.EdgeLlama1B(), Mode: model.Autoregressive},
		digest: "05f0e327d005f0a62009d8f5a639a39eca91817957344d4cb3c0e3bc0b38b26d",
	},
	{
		name: "tinyllama-prompt-2-dram-d1b2",
		sys: func() System {
			s := DefaultSystem(2)
			s.HW.Mem = hw.LPDDR5()
			s.HW.Mem.PrefetchDepth, s.HW.Mem.SRAMBanks = 1, 2
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Prompt},
		digest: "795f143eedc994267bfd19df4940eb9a0cc3cee0d65fe0e34f599324d9e003cb",
	},
	{
		name: "tinyllama-ar-2-dram-deep",
		sys: func() System {
			s := DefaultSystem(2)
			s.HW.Mem = hw.LPDDR5()
			s.HW.Mem.PrefetchDepth = 1 << 20
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive},
		digest: "d8937de1924e880064c687581c98e4d67559a4d42d07d6c76c9dbbe74d1e3810",
	},
	{
		name: "edgellama-ar-8-dram-straggler",
		sys: func() System {
			s := DefaultSystem(8)
			s.HW.Mem = hw.LPDDR5()
			s.Options.StragglerChip, s.Options.StragglerFactor = 5, 0.5
			return s
		},
		wl:     Workload{Model: model.EdgeLlama1B(), Mode: model.Autoregressive},
		digest: "dc0409d69939142d4210b21eea743cda0c745fb835a388aa2f6b4d87880115f6",
	},
	{
		name: "edgellama-prompt-8-dram-ragged",
		sys: func() System {
			s := DefaultSystem(8)
			s.HW.Mem = hw.LPDDR5()
			s.HW.Mem.TileK, s.HW.Mem.TileN = 100, 37
			return s
		},
		wl:     Workload{Model: model.EdgeLlama1B(), Mode: model.Prompt},
		digest: "9d7763f0e569209894b37adf2409f95474932678e1ac574e86d99f9e52cb034f",
	},
	{
		// The replicated strategy's KV and output exchanges, which run
		// no root work between reduce and broadcast.
		name: "tinyllama-prompt-8-replicated",
		sys: func() System {
			s := DefaultSystem(8)
			s.Strategy = partition.Replicated
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Prompt},
		digest: "c1354ede0929f199ac2215ae000d4ec32810805a892459085ba92ac6f2c0a01c",
	},
	{
		// A 128 KiB payload: each sync runs two 64 KiB tiles.
		name: "tinyllama-prompt-8-ring-seq256",
		sys: func() System {
			s := DefaultSystem(8)
			s.HW.Topology = hw.TopoRing
			return s
		},
		wl:     Workload{Model: model.TinyLlama42M(), Mode: model.Prompt, SeqLen: 256},
		digest: "5745d1f4ec9bf70a4d9225043825aef17c27b64eb07757c53f527de50a9d9e5f",
	},
	{
		// The ring and the tree share directed links such as 0->1, so
		// link time carries over between two schedules in one run.
		name: "scaled-ar-64-plan-degraded-straggler",
		sys: func() System {
			s := DefaultSystem(64)
			plan, err := collective.ParsePlan("decode-mhsa=ring,decode-ffn=tree")
			if err != nil {
				panic(err)
			}
			s.Options.SyncPlan = plan
			s.Options.DegradedLinkChip, s.Options.DegradedLinkFactor = 1, 0.25
			s.Options.StragglerChip, s.Options.StragglerFactor = 5, 0.5
			return s
		},
		wl:     Workload{Model: model.TinyLlamaScaled64(), Mode: model.Autoregressive},
		digest: "706998ac06d8b923a43099fb85a1fe4f4659de549c5ea9a9b71ff4fdcfd53532",
	},
}

// v3Report is Report as it stood when the digests were recorded, with
// the per-chip counters and the per-class split it then carried (now
// rendered from perfsim.Result and energy.C2CByClass): %+v prints
// field names, not the type's, so the pins hold across Report's later
// reshaping.
type v3Report struct {
	System           v3System
	Workload         Workload
	Cycles           float64
	Seconds          float64
	Breakdown        perfsim.Breakdown
	Energy           energy.Report
	EDP              float64
	Tier             deploy.Tier
	Syncs            int
	L3Bytes          int64
	C2CBytes         int64
	PerChip          []perfsim.ChipStats
	ByClass          []perfsim.ClassStats
	C2CEnergyByClass []energy.ClassEnergy
}

// v3System is System with the planner options as they stood when the
// digests were recorded: they then carried a communication tile
// override, which no program ever set.
type v3System struct {
	HW       hw.Params
	Chips    int
	Strategy partition.Strategy
	Options  struct {
		PrefetchExposed    bool
		CommTileBytes      int
		NoActivationSpill  bool
		DegradedLinkFactor float64
		DegradedLinkChip   int
		SyncPlan           collective.Plan
		StragglerFactor    float64
		StragglerChip      int
	}
}

func newV3System(s System) v3System {
	v := v3System{HW: s.HW, Chips: s.Chips, Strategy: s.Strategy}
	o := &v.Options
	o.PrefetchExposed, o.NoActivationSpill = s.Options.PrefetchExposed, s.Options.NoActivationSpill
	o.DegradedLinkFactor, o.DegradedLinkChip = s.Options.DegradedLinkFactor, s.Options.DegradedLinkChip
	o.SyncPlan = s.Options.SyncPlan
	o.StragglerFactor, o.StragglerChip = s.Options.StragglerFactor, s.Options.StragglerChip
	return v
}

func TestReportDigests(t *testing.T) {
	for _, c := range reportDigests {
		t.Run(c.name, func(t *testing.T) {
			sys := c.sys()
			rep, res, err := run(sys, c.wl)
			if err != nil {
				t.Fatal(err)
			}
			v3 := v3Report{
				System: newV3System(rep.System), Workload: rep.Workload,
				Cycles: rep.Cycles, Seconds: rep.Seconds, Breakdown: rep.Breakdown,
				Energy: rep.Energy, EDP: rep.EDP, Tier: rep.Tier, Syncs: rep.Syncs,
				L3Bytes: rep.L3Bytes, C2CBytes: rep.C2CBytes, PerChip: res.PerChip,
				ByClass: res.ByClass, C2CEnergyByClass: energy.C2CByClass(sys.HW, res),
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v3))))
			if got != c.digest {
				t.Errorf("report digest = %s, want %s", got, c.digest)
			}
		})
	}
}
