package perfsim

import (
	"math"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// runNet simulates TinyLlama on n chips under an arbitrary network
// description.
func runNet(t *testing.T, hwp hw.Params, n int, strategy partition.Strategy, mode model.Mode) (*Result, *deploy.Deployment) {
	t.Helper()
	var p *partition.Plan
	var err error
	switch strategy {
	case partition.Pipeline:
		p, err = partition.NewPipeline(model.TinyLlama42M(), n)
	default:
		p, err = partition.NewTensorParallel(model.TinyLlama42M(), n)
	}
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hwp, mode, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

// A uniform network yields exactly one link class and per-class
// counters equal to the totals — the shape every pre-refactor
// consumer implicitly assumed.
func TestUniformNetworkSingleClassCounters(t *testing.T) {
	res, _ := runNet(t, hw.Siracusa(), 8, partition.TensorParallel, model.Prompt)
	if len(res.LinkClasses) != 1 || res.LinkClasses[0] != hw.MIPI() {
		t.Fatalf("link classes = %+v, want exactly [MIPI]", res.LinkClasses)
	}
	for c, st := range res.PerChip {
		if len(st.C2CCyclesByClass) != 1 || len(st.C2CSentBytesByClass) != 1 {
			t.Fatalf("chip %d: per-class counters %d/%d entries, want 1/1",
				c, len(st.C2CCyclesByClass), len(st.C2CSentBytesByClass))
		}
		if st.C2CCyclesByClass[0] != st.C2CCycles {
			t.Errorf("chip %d: class cycles %g != total %g", c, st.C2CCyclesByClass[0], st.C2CCycles)
		}
		if st.C2CSentBytesByClass[0] != st.C2CSentBytes {
			t.Errorf("chip %d: class bytes %d != total %d", c, st.C2CSentBytesByClass[0], st.C2CSentBytes)
		}
	}
}

// Under a clustered network the run reports both classes, the
// per-class counters partition the totals exactly, and slowing the
// backhaul stretches the runtime while leaving the byte split fixed
// (the schedule, not the rates, decides who sends what where).
func TestClusteredNetworkPerClassAccounting(t *testing.T) {
	uni, _ := runNet(t, hw.Siracusa(), 8, partition.TensorParallel, model.Prompt)

	hwp := hw.Siracusa()
	hwp.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	res, _ := runNet(t, hwp, 8, partition.TensorParallel, model.Prompt)

	if len(res.LinkClasses) != 2 {
		t.Fatalf("link classes = %+v, want [local backhaul]", res.LinkClasses)
	}
	if res.LinkClasses[0] != hw.MIPI() || res.LinkClasses[1] != hw.MIPI().Slower(10) {
		t.Fatalf("link classes = %+v, want local first (first reduce hop is intra-cluster)", res.LinkClasses)
	}
	var backBytes int64
	for c, st := range res.PerChip {
		var cycles float64
		var bytes int64
		for _, x := range st.C2CCyclesByClass {
			cycles += x
		}
		for _, b := range st.C2CSentBytesByClass {
			bytes += b
		}
		if math.Abs(cycles-st.C2CCycles) > 1e-9*math.Max(1, st.C2CCycles) {
			t.Errorf("chip %d: class cycles sum %g != total %g", c, cycles, st.C2CCycles)
		}
		if bytes != st.C2CSentBytes {
			t.Errorf("chip %d: class bytes sum %d != total %d", c, bytes, st.C2CSentBytes)
		}
		backBytes += st.C2CSentBytesByClass[1]
	}
	if backBytes <= 0 {
		t.Fatal("8 chips in clusters of 4 moved no backhaul bytes")
	}
	// Total traffic is schedule-determined, identical to uniform; only
	// the time changes.
	if res.TotalC2CBytes != uni.TotalC2CBytes {
		t.Errorf("clustered traffic %d != uniform %d", res.TotalC2CBytes, uni.TotalC2CBytes)
	}
	if res.TotalCycles <= uni.TotalCycles {
		t.Errorf("10x-slower backhaul did not stretch runtime: %g <= %g", res.TotalCycles, uni.TotalCycles)
	}
}

// The pipeline handoff chain resolves each edge's class from the
// network: a backhaul on the chain boundary slows the handoff, and a
// per-edge table that does not wire the chain is rejected.
func TestPipelineChainUsesNetworkClasses(t *testing.T) {
	uni, _ := runNet(t, hw.Siracusa(), 2, partition.Pipeline, model.Prompt)

	hwp := hw.Siracusa()
	hwp.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 1) // every edge backhaul
	slow, _ := runNet(t, hwp, 2, partition.Pipeline, model.Prompt)
	if slow.TotalCycles <= uni.TotalCycles {
		t.Errorf("backhaul pipeline handoff not slower: %g <= %g", slow.TotalCycles, uni.TotalCycles)
	}

	// A table wiring only 1->0 leaves the 0->1 handoff undefined.
	back, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{{From: 1, To: 0}: hw.MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	hwp = hw.Siracusa()
	hwp.Network = back
	p, err := partition.NewPipeline(model.TinyLlama42M(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hwp, model.Prompt, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d); err == nil {
		t.Fatal("pipeline over a table without the chain edge ran")
	}

	// A chain-only table — the natural measured wiring of a
	// daisy-chained pipeline board — must run: the pipeline executes
	// no collective hops, so leaving collective edges unwired is fine.
	chain, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{{From: 0, To: 1}: hw.MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	hwp = hw.Siracusa()
	hwp.Network = chain
	chained, _ := runNet(t, hwp, 2, partition.Pipeline, model.Prompt)
	if chained.TotalCycles != uni.TotalCycles {
		t.Errorf("chain-only MIPI table pipeline %g cycles, want uniform's %g", chained.TotalCycles, uni.TotalCycles)
	}
	// The same chain-only table must still reject a strategy that DOES
	// execute collective hops.
	if _, err := partialRun(t, hwp); err == nil {
		t.Error("tensor-parallel ran over a chain-only table")
	}
}

// A pipeline whose direct stage edge is missing re-routes the handoff
// through surviving chips instead of rejecting the run: the routed
// deployment completes, pays for the extra hops, and matches the
// directly wired chain everywhere the direct edges exist.
func TestPipelineRoutesAroundMissingStageEdge(t *testing.T) {
	mipi := hw.MIPI()
	full := map[hw.Edge]hw.LinkClass{}
	for c := 0; c < 3; c++ {
		full[hw.Edge{From: c, To: c + 1}] = mipi
	}
	wired, err := hw.TableNetwork(full, 4)
	if err != nil {
		t.Fatal(err)
	}
	hwp := hw.Siracusa()
	hwp.Network = wired
	direct, _ := runNet(t, hwp, 4, partition.Pipeline, model.Prompt)

	// Sever the direct 1->2 edge and offer a detour through chip 3
	// (1->3->2): the handoff must route around the gap.
	gap := map[hw.Edge]hw.LinkClass{
		{From: 0, To: 1}: mipi,
		{From: 1, To: 3}: mipi,
		{From: 3, To: 2}: mipi,
		{From: 2, To: 3}: mipi,
	}
	gapped, err := hw.TableNetwork(gap, 4)
	if err != nil {
		t.Fatal(err)
	}
	hwp.Network = gapped
	routed, _ := runNet(t, hwp, 4, partition.Pipeline, model.Prompt)
	if routed.TotalCycles <= direct.TotalCycles {
		t.Errorf("re-routed pipeline %g cycles, want more than the directly wired chain's %g",
			routed.TotalCycles, direct.TotalCycles)
	}
	// The detour bills its traffic on the intermediate chip: chip 3
	// forwards the 1->2 handoff and the 2->3 handoff's payload arrives
	// there anyway, so chip 1's sends double (1->3 then relayed).
	if routed.TotalC2CBytes <= direct.TotalC2CBytes {
		t.Errorf("re-routed pipeline moved %d bytes, want more than the direct chain's %d",
			routed.TotalC2CBytes, direct.TotalC2CBytes)
	}
}

// partialRun attempts a tensor-parallel run under hwp, returning the
// simulation error (deployment building must succeed).
func partialRun(t *testing.T, hwp hw.Params) (*Result, error) {
	t.Helper()
	p, err := partition.NewTensorParallel(model.TinyLlama42M(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hwp, model.Prompt, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Run(d)
}
