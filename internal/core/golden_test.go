package core

import (
	"math"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// golden pins the exact float64 bit patterns the simulator produced
// before the interconnect was refactored onto pluggable topology
// schedules (PR "pluggable interconnect topologies") and before the
// single hw.Link was replaced by the per-edge link model (PR
// "heterogeneous per-edge link model"). On the uniform network —
// today's default, the only profile that existed before — all four
// topologies have to reproduce these results bit for bit: the
// refactors are restructurings, not model changes. The ring and
// fully-connected rows were captured immediately before the link
// model changed, from the same commit the tree/star rows survived.
// Since the per-sync collective plan subsystem, every row runs twice:
// once with the run-wide topology selector (zero plan) and once as a
// uniform plan binding every synchronization class to the row's shape
// on a default platform — both must reproduce the same bits.
//
// If a later PR intentionally changes the cost model (kernels, deploy
// planner, energy constants), re-baseline these constants in that PR
// and say so in its description; an unexplained diff here means the
// collective schedule execution drifted.
type golden struct {
	name     string
	topology hw.Topology
	flatVia  bool // reach the star via the legacy GroupSize >= n route instead
	chips    int
	cfg      func() model.Config
	mode     model.Mode

	cycles, compute, l2l1, l3, c2c uint64 // math.Float64bits
	c2cBytes, l3Bytes              int64
	syncs                          int
	energy                         uint64
}

var goldens = []golden{
	{
		name: "tinyllama-ar-8", chips: 8, cfg: model.TinyLlama42M, mode: model.Autoregressive,
		cycles: 0x41193c0000000000, compute: 0x4100f80000000000, l2l1: 0x410b800000000000,
		l3: 0x0000000000000000, c2c: 0x40e8000000000000,
		c2cBytes: 114688, l3Bytes: 25165824, syncs: 16, energy: 0x3f65539da90f9e11,
	},
	{
		name: "tinyllama-prompt-8", chips: 8, cfg: model.TinyLlama42M, mode: model.Prompt,
		cycles: 0x41408f4000000000, compute: 0x4131d10000000000, l2l1: 0x411c360000000000,
		l3: 0x0000000000000000, c2c: 0x4120800000000000,
		c2cBytes: 1835008, l3Bytes: 25165824, syncs: 16, energy: 0x3f686db54407b227,
	},
	{
		name: "tinyllama-ar-1", chips: 1, cfg: model.TinyLlama42M, mode: model.Autoregressive,
		cycles: 0x41696e3c00000003, compute: 0x4120e1c000000000, l2l1: 0x4139690000000000,
		l3: 0x4165330000000002, c2c: 0x0000000000000000,
		c2cBytes: 0, l3Bytes: 27750400, syncs: 16, energy: 0x3f6749081c6bc689,
	},
	{
		name: "tinyllama-ar-3", chips: 3, cfg: model.TinyLlama42M, mode: model.Autoregressive,
		cycles: 0x41509ff3e6666667, compute: 0x410d7f0000000000, l2l1: 0x412208ac00000000,
		l3: 0x414ab5ccccccccce, c2c: 0x40d8000000000000,
		c2cBytes: 32768, l3Bytes: 25165824, syncs: 16, energy: 0x3f6536b9eed08544,
	},
	{
		name: "mobilebert-prompt-4", chips: 4, cfg: model.MobileBERT512, mode: model.Prompt,
		cycles: 0x4182b916a8000000, compute: 0x417e16c7ffffffec, l2l1: 0x4158651480000000,
		l3: 0x0000000000000000, c2c: 0x4134220300000140,
		c2cBytes: 19759104, l3Bytes: 18874368, syncs: 24, energy: 0x3f7d9bf13ebd9464,
	},
	{
		name: "scaled-prompt-64", chips: 64, cfg: model.TinyLlamaScaled64, mode: model.Prompt,
		cycles: 0x413ac3c000000000, compute: 0x41208d8000000000, l2l1: 0x4118740000000000,
		l3: 0x0000000000000000, c2c: 0x4128c00000000000,
		c2cBytes: 16515072, l3Bytes: 0, syncs: 16, energy: 0x3f62a2db93e551b2,
	},
	// The explicit star topology must reproduce the pre-refactor
	// flat-reduction ablation (GroupSize >= n) exactly.
	{
		name: "scaled-prompt-64-star", topology: hw.TopoStar, chips: 64,
		cfg: model.TinyLlamaScaled64, mode: model.Prompt,
		cycles: 0x414c372000000000, compute: 0x4139bb4000000000, l2l1: 0x413a930000000000,
		l3: 0x0000000000000000, c2c: 0x4110800000000000,
		c2cBytes: 16515072, l3Bytes: 0, syncs: 16, energy: 0x3f62a2db93e551aa,
	},
	// ... and so must the legacy GroupSize >= n spelling itself.
	{
		name: "scaled-prompt-64-flat-legacy", flatVia: true, chips: 64,
		cfg: model.TinyLlamaScaled64, mode: model.Prompt,
		cycles: 0x414c372000000000, compute: 0x4139bb4000000000, l2l1: 0x413a930000000000,
		l3: 0x0000000000000000, c2c: 0x4110800000000000,
		c2cBytes: 16515072, l3Bytes: 0, syncs: 16, energy: 0x3f62a2db93e551aa,
	},
	// Uniform-network results for the remaining topology shapes,
	// captured pre-refactor: the per-edge link model must leave every
	// shape bit-identical when all edges carry the one MIPI class.
	{
		name: "tinyllama-ar-8-ring", topology: hw.TopoRing, chips: 8,
		cfg: model.TinyLlama42M, mode: model.Autoregressive,
		cycles: 0x4117c5c000000000, compute: 0x40f8ab0000000000, l2l1: 0x410a760000000000,
		l3: 0x0000000000000000, c2c: 0x40f1800000000000,
		c2cBytes: 114688, l3Bytes: 25165824, syncs: 16, energy: 0x3f65539da90f9e11,
	},
	{
		name: "tinyllama-ar-8-fc", topology: hw.TopoFullyConnected, chips: 8,
		cfg: model.TinyLlama42M, mode: model.Autoregressive,
		cycles: 0x4118610000000000, compute: 0x41031a0000000000, l2l1: 0x410c280000000000,
		l3: 0x0000000000000000, c2c: 0x40c8000000000000,
		c2cBytes: 458752, l3Bytes: 25165824, syncs: 16, energy: 0x3f65bb6925452261,
	},
	{
		name: "tinyllama-prompt-8-ring", topology: hw.TopoRing, chips: 8,
		cfg: model.TinyLlama42M, mode: model.Prompt,
		cycles: 0x413809b000000000, compute: 0x412dba6000000000, l2l1: 0x4113320000000000,
		l3: 0x0000000000000000, c2c: 0x4111800000000000,
		c2cBytes: 1835008, l3Bytes: 25165824, syncs: 16, energy: 0x3f686db54407b227,
	},
	{
		name: "tinyllama-prompt-8-fc", topology: hw.TopoFullyConnected, chips: 8,
		cfg: model.TinyLlama42M, mode: model.Prompt,
		cycles: 0x413d09c000000000, compute: 0x4132c94000000000, l2l1: 0x4120610000000000,
		l3: 0x0000000000000000, c2c: 0x4100800000000000,
		c2cBytes: 7340032, l3Bytes: 25165824, syncs: 16, energy: 0x3f6dd79d76e971de,
	},
	{
		name: "scaled-prompt-64-ring", topology: hw.TopoRing, chips: 64,
		cfg: model.TinyLlamaScaled64, mode: model.Prompt,
		cycles: 0x4131669600000000, compute: 0x410c00b000000000, l2l1: 0x4100b40000000000,
		l3: 0x0000000000000000, c2c: 0x4127a00000000000,
		c2cBytes: 16515072, l3Bytes: 0, syncs: 16, energy: 0x3f62a2db93e551b3,
	},
	{
		name: "scaled-prompt-64-fc", topology: hw.TopoFullyConnected, chips: 64,
		cfg: model.TinyLlamaScaled64, mode: model.Prompt,
		cycles: 0x414b2f2000000000, compute: 0x4139bb4000000000, l2l1: 0x413a930000000000,
		l3: 0x0000000000000000, c2c: 0x4100800000000000,
		c2cBytes: 528482304, l3Bytes: 0, syncs: 16, energy: 0x3fae4d2ad2a7dd45,
	},
}

func TestGoldenTreeByteIdentical(t *testing.T) {
	// The default platform IS the explicit uniform-MIPI spelling: the
	// golden rows below therefore pin the uniform path of the
	// per-edge link model against the pre-refactor single hw.Link.
	if hw.Siracusa().Network != hw.UniformNetwork(hw.MIPI()) {
		t.Fatal("default network is not UniformNetwork(MIPI())")
	}
	for _, g := range goldens {
		check := func(t *testing.T, rep *Report) {
			t.Helper()
			bits := func(field string, got float64, want uint64) {
				if math.Float64bits(got) != want {
					t.Errorf("%s = %.17g (bits 0x%016x), want bits 0x%016x",
						field, got, math.Float64bits(got), want)
				}
			}
			bits("cycles", rep.Cycles, g.cycles)
			bits("breakdown.compute", rep.Breakdown.Compute, g.compute)
			bits("breakdown.l2l1", rep.Breakdown.L2L1, g.l2l1)
			bits("breakdown.l3", rep.Breakdown.L3, g.l3)
			bits("breakdown.c2c", rep.Breakdown.C2C, g.c2c)
			bits("energy", rep.Energy.Total(), g.energy)
			if rep.C2CBytes != g.c2cBytes {
				t.Errorf("c2c bytes = %d, want %d", rep.C2CBytes, g.c2cBytes)
			}
			if rep.L3Bytes != g.l3Bytes {
				t.Errorf("l3 bytes = %d, want %d", rep.L3Bytes, g.l3Bytes)
			}
			if rep.Syncs != g.syncs {
				t.Errorf("syncs = %d, want %d", rep.Syncs, g.syncs)
			}
		}
		t.Run(g.name, func(t *testing.T) {
			// The zero collective plan is the default here: these rows
			// also pin that an unset plan leaves the single-topology
			// path untouched.
			sys := DefaultSystem(g.chips)
			sys.HW.Topology = g.topology
			if g.flatVia {
				sys.HW.GroupSize = g.chips
			}
			rep, err := Run(sys, Workload{Model: g.cfg(), Mode: g.mode})
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep)
		})
		t.Run(g.name+"-planned", func(t *testing.T) {
			// The same numbers must reproduce when the topology is
			// selected per synchronization class instead of run-wide:
			// a uniform collective plan binding every class to g's
			// shape, on an otherwise default (tree) platform, is the
			// same simulation — per-sync scheduling is a
			// restructuring, not a model change.
			sys := DefaultSystem(g.chips)
			if g.flatVia {
				sys.HW.GroupSize = g.chips
			}
			for _, c := range collective.Classes() {
				sys.Options.SyncPlan = sys.Options.SyncPlan.With(c, g.topology)
			}
			rep, err := Run(sys, Workload{Model: g.cfg(), Mode: g.mode})
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep)
		})
	}
}
