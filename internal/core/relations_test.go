package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
	"mcudist/internal/resilience"
)

// The link relations compare two simulations that must agree, or must
// move one way, without needing a second model of the simulator:
//
//  1. A point's network materialized as a per-edge table
//     (hw.NetworkEdges, then hw.TableNetwork) simulates bit-identical
//     to the network itself.
//  2. Doubling every edge's bandwidth in that table never raises
//     Cycles: every device serves its users in a fixed order, so each
//     end time is a max-plus expression of the durations.
//  3. On the DRAM tier, doubling the channel's bandwidth
//     (DRAMBytesPerCycle) never raises Cycles.
//  4. On the DRAM tier, doubling the SRAM bank count never raises
//     Cycles: each bank-contention stall shrinks.
//
// A violation is a simulator bug to fix, never a relation to drop.
// Identity faults are TestPerturbMatchesReference's.

// relationModels is the model axis of the relation grid, with the
// modes and memory tiers each is legal on, as in the sweep benchmark.
var relationModels = []struct {
	cfg        model.Config
	promptOnly bool // MobileBERT has no decoder
	dramOnly   bool // EdgeLlama does not fit the flat on-chip model
}{
	{cfg: model.TinyLlama42M()},
	{cfg: model.TinyLlamaScaled64()},
	{cfg: model.MobileBERT512(), promptOnly: true},
	{cfg: model.EdgeLlama1B(), dramOnly: true},
}

// relationChips are the chip counts a point draws from, where its
// model allows them: odd counts leave a partial cluster on the
// clustered network. The set is small so a long fuzz run revisits its
// networks instead of registering a new table per input.
var relationChips = []int{2, 3, 5, 8, 16, 64}

var relationPlan = func() collective.Plan {
	p, err := collective.ParsePlan("prefill=ring,decode=tree")
	if err != nil {
		panic(err)
	}
	return p
}()

// relationPoint draws one point of the relation grid: model, chip
// count, topology, network, collective plan, strategy, mode, memory
// tier, sequence length, batch width, a degraded link and a straggler.
// With faulty set, two in three points then move to a degraded board
// made by resilience.Perturb: one chip dropped, or a slowed edge plus a
// straggling chip (the drawn straggler, if any, since the simulator
// models one).
func relationPoint(r *rand.Rand, faulty bool) (core.System, core.Workload, error) {
	m := relationModels[r.IntN(len(relationModels))]
	var chips []int
	for _, n := range relationChips {
		if n <= m.cfg.KVHeadCount() && n <= m.cfg.F {
			chips = append(chips, n)
		}
	}
	n := chips[r.IntN(len(chips))]
	sys := core.DefaultSystem(n)
	topos := hw.Topologies()
	sys.HW.Topology = topos[r.IntN(len(topos))]
	if r.IntN(2) == 1 {
		sys.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	}
	if r.IntN(2) == 1 {
		sys.Options.SyncPlan = relationPlan
	}
	switch r.IntN(8) {
	case 0:
		sys.Strategy = partition.Replicated
	case 1:
		if n <= m.cfg.L {
			sys.Strategy = partition.Pipeline
		}
	}
	wl := core.Workload{Model: m.cfg, Mode: model.Prompt, SeqLen: 16 + r.IntN(240)}
	if !m.promptOnly && r.IntN(2) == 1 {
		wl.Mode = model.Autoregressive
		wl.Batch = 1 + r.IntN(8)
	}
	if m.dramOnly || r.IntN(4) == 0 {
		sys.HW.Mem = hw.LPDDR5()
	}
	if r.IntN(4) == 0 {
		sys.Options.DegradedLinkChip, sys.Options.DegradedLinkFactor = r.IntN(n), 0.25
	}
	straggler := n - 1
	if r.IntN(4) == 0 {
		straggler = r.IntN(n)
		sys.Options.StragglerChip, sys.Options.StragglerFactor = straggler, 0.5
	}
	if !faulty || r.IntN(3) == 0 {
		return sys, wl, nil
	}
	faults := []resilience.Fault{resilience.SlowEdge(0, 1, 4), resilience.StraggleChip(straggler, 2)}
	if n >= 3 && r.IntN(2) == 0 {
		faults = []resilience.Fault{resilience.DropChip([]int{0, 1, n - 1}[r.IntN(3)])}
	}
	sys, _, err := resilience.Perturb(sys, faults...)
	return sys, wl, err
}

func simulate(t *testing.T, sys core.System, wl core.Workload) *perfsim.Result {
	t.Helper()
	d, err := core.Lower(sys, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := perfsim.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// strictness records which doublings made one point strictly faster;
// dram marks a point on the DRAM tier, where the last two apply.
type strictness struct {
	dram, links, bandwidth, banks bool
}

// checkLinkRelations checks the relations on one point and reports
// which doublings made it strictly faster.
func checkLinkRelations(t *testing.T, sys core.System, wl core.Workload) strictness {
	t.Helper()
	point := fmt.Sprintf("%s %s %d chips %s on %s, %s, plan %v, seq %d batch %d, options %+v",
		wl.Model.Name, wl.Mode, sys.Chips, sys.Strategy, sys.HW.Topology, sys.HW.Network,
		sys.Options.SyncPlan, wl.SeqLen, wl.Batch, sys.Options)
	base := simulate(t, sys, wl)
	edges, err := hw.NetworkEdges(sys.HW.Network, sys.Chips)
	if err != nil {
		t.Fatal(err)
	}
	table := sys
	if table.HW.Network, err = hw.TableNetwork(edges, sys.Chips); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", *simulate(t, table, wl)), fmt.Sprintf("%#v", *base); got != want {
		t.Fatalf("%s: the network materialized as a table simulates differently", point)
	}
	for e, c := range edges {
		c.BandwidthBytesPerSec *= 2
		edges[e] = c
	}
	fast := sys
	if fast.HW.Network, err = hw.TableNetwork(edges, sys.Chips); err != nil {
		t.Fatal(err)
	}
	cycles := simulate(t, fast, wl).TotalCycles
	if cycles > base.TotalCycles {
		t.Fatalf("%s: doubling every link's bandwidth raised Cycles from %g to %g", point, base.TotalCycles, cycles)
	}
	st := strictness{dram: sys.HW.Mem.Enabled(), links: cycles < base.TotalCycles}
	if !st.dram {
		return st
	}
	for _, knob := range []struct {
		name   string
		double func(*hw.MemHierarchy)
		strict *bool
	}{
		{"the DRAM bandwidth", func(m *hw.MemHierarchy) { m.DRAMBytesPerCycle *= 2 }, &st.bandwidth},
		{"the SRAM bank count", func(m *hw.MemHierarchy) { m.SRAMBanks *= 2 }, &st.banks},
	} {
		more := sys
		knob.double(&more.HW.Mem)
		c := simulate(t, more, wl).TotalCycles
		if c > base.TotalCycles {
			t.Fatalf("%s: doubling %s raised Cycles from %g to %g", point, knob.name, base.TotalCycles, c)
		}
		*knob.strict = c < base.TotalCycles
	}
	return st
}

// TestLinkRelations checks the relations over two seeded grids: one of
// healthy boards, and one where two in three points are degraded.
func TestLinkRelations(t *testing.T) {
	for _, grid := range []struct {
		name   string
		seed   uint64
		points int
		faulty bool
	}{
		{"healthy", 1, 512, false},
		{"degraded", 2, 160, true},
	} {
		r := rand.New(rand.NewPCG(grid.seed, 0))
		var faster, dram, bandwidth, banks int
		for i := range grid.points {
			sys, wl, err := relationPoint(r, grid.faulty)
			if err != nil {
				t.Fatalf("%s point %d: %v", grid.name, i, err)
			}
			st := checkLinkRelations(t, sys, wl)
			if st.links {
				faster++
			}
			if st.dram {
				dram++
			}
			if st.bandwidth {
				bandwidth++
			}
			if st.banks {
				banks++
			}
		}
		t.Logf("%s grid: the relations hold on %d points, %d of them strictly faster at double link bandwidth; "+
			"of the %d on the DRAM tier, %d strictly faster at double DRAM bandwidth and %d at double SRAM banks",
			grid.name, grid.points, faster, dram, bandwidth, banks)
	}
}

// FuzzLinkRelations draws the grid point from the fuzz input: the
// seed of the draw, and whether the board may be degraded.
func FuzzLinkRelations(f *testing.F) {
	f.Add(uint64(1), false)
	f.Add(uint64(2), true)
	f.Fuzz(func(t *testing.T, seed uint64, faulty bool) {
		sys, wl, err := relationPoint(rand.New(rand.NewPCG(seed, 0)), faulty)
		if err != nil {
			t.Fatal(err)
		}
		checkLinkRelations(t, sys, wl)
	})
}
