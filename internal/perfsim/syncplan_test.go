package perfsim

import (
	"math"
	"strings"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
)

// runPlanned simulates TinyLlama under a collective plan.
func runPlanned(t *testing.T, plan collective.Plan, topo hw.Topology, n int, mode model.Mode) *Result {
	t.Helper()
	res, err := tryRunPlanned(plan, topo, hw.UniformNetwork(hw.MIPI()), n, mode)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tryRunPlanned(plan collective.Plan, topo hw.Topology, net hw.Network, n int, mode model.Mode) (*Result, error) {
	p, err := partition.NewTensorParallel(model.TinyLlama42M(), n)
	if err != nil {
		return nil, err
	}
	hwp := hw.Siracusa()
	hwp.Topology = topo
	hwp.Network = net
	d, err := deploy.NewBatched(p, hwp, mode, 128, 1, deploy.Options{SyncPlan: plan})
	if err != nil {
		return nil, err
	}
	return Run(d)
}

// A plan binding every active class to the run topology is the exact
// same simulation as the zero plan, for every shape: schedFor hands
// back the very schedule the run lowered.
func TestPlanUniformMatchesZeroPlan(t *testing.T) {
	for _, topo := range hw.Topologies() {
		for _, mode := range []model.Mode{model.Prompt, model.Autoregressive} {
			base := runPlanned(t, collective.Plan{}, topo, 8, mode)
			var uniform collective.Plan
			for _, c := range collective.Classes() {
				uniform = uniform.With(c, topo)
			}
			planned := runPlanned(t, uniform, topo, 8, mode)
			if base.TotalCycles != planned.TotalCycles {
				t.Errorf("%s/%s: uniform plan %v cycles, zero plan %v", topo, mode,
					planned.TotalCycles, base.TotalCycles)
			}
			if base.TotalC2CBytes != planned.TotalC2CBytes {
				t.Errorf("%s/%s: uniform plan moved %d bytes, zero plan %d", topo, mode,
					planned.TotalC2CBytes, base.TotalC2CBytes)
			}
		}
	}
}

// Binding every active class to topology T on a run whose base shape
// is different must reproduce the uniform-T run exactly: the class
// schedule, not the run topology, decides every collective.
func TestPlanOverridesRunTopology(t *testing.T) {
	plan := collective.Plan{}.
		With(collective.PrefillMHSA, hw.TopoRing).
		With(collective.PrefillFFN, hw.TopoRing)
	overridden := runPlanned(t, plan, hw.TopoTree, 8, model.Prompt)
	uniformRing := runPlanned(t, collective.Plan{}, hw.TopoRing, 8, model.Prompt)
	if overridden.TotalCycles != uniformRing.TotalCycles {
		t.Errorf("ring-planned run on tree base: %v cycles, uniform ring %v",
			overridden.TotalCycles, uniformRing.TotalCycles)
	}
	if overridden.TotalC2CBytes != uniformRing.TotalC2CBytes {
		t.Errorf("ring-planned run moved %d bytes, uniform ring %d",
			overridden.TotalC2CBytes, uniformRing.TotalC2CBytes)
	}
	// The run-level reporting still names the base shape; the per-class
	// stats name the executed one.
	if overridden.Topology != hw.TopoTree {
		t.Errorf("result topology %s, want the base tree", overridden.Topology)
	}
	for _, cs := range overridden.ByClass {
		if cs.Topology != hw.TopoRing {
			t.Errorf("%s executed on %s, want ring", cs.Class, cs.Topology)
		}
	}
}

// The per-class split must cover the run exactly: class syncs sum to
// Result.Syncs, class bytes and link-busy cycles sum to the chip
// totals, and the classes match the strategy and mode.
func TestPlanClassAccountingConsistent(t *testing.T) {
	plan := collective.Plan{}.
		With(collective.PrefillMHSA, hw.TopoRing).
		With(collective.PrefillFFN, hw.TopoTree)
	res := runPlanned(t, plan, hw.TopoTree, 8, model.Prompt)

	if len(res.ByClass) != 2 {
		t.Fatalf("%d classes, want 2", len(res.ByClass))
	}
	if res.ByClass[0].Class != collective.PrefillMHSA || res.ByClass[1].Class != collective.PrefillFFN {
		t.Errorf("classes %s/%s, want prefill-mhsa/prefill-ffn",
			res.ByClass[0].Class, res.ByClass[1].Class)
	}
	if res.ByClass[0].Topology != hw.TopoRing || res.ByClass[1].Topology != hw.TopoTree {
		t.Errorf("topologies %s/%s, want ring/tree",
			res.ByClass[0].Topology, res.ByClass[1].Topology)
	}

	var syncs int
	var bytes int64
	var cycles float64
	for _, cs := range res.ByClass {
		syncs += cs.Syncs
		bytes += cs.C2CSentBytes
		cycles += cs.C2CCycles
		if cs.Syncs == 0 || cs.C2CSentBytes == 0 || cs.C2CCycles == 0 {
			t.Errorf("%s: empty counters (%d syncs, %d B, %g cycles)",
				cs.Class, cs.Syncs, cs.C2CSentBytes, cs.C2CCycles)
		}
		if len(cs.C2CSentBytesByLink) != len(res.LinkClasses) {
			t.Errorf("%s: %d link-class counters, want %d",
				cs.Class, len(cs.C2CSentBytesByLink), len(res.LinkClasses))
		}
		var perLink int64
		for _, b := range cs.C2CSentBytesByLink {
			perLink += b
		}
		if perLink != cs.C2CSentBytes {
			t.Errorf("%s: per-link bytes %d != class bytes %d", cs.Class, perLink, cs.C2CSentBytes)
		}
	}
	if syncs != res.Syncs {
		t.Errorf("class syncs sum to %d, run counted %d", syncs, res.Syncs)
	}
	if bytes != res.TotalC2CBytes {
		t.Errorf("class bytes sum to %d, run moved %d", bytes, res.TotalC2CBytes)
	}
	var chipCycles float64
	for _, st := range res.PerChip {
		chipCycles += st.C2CCycles
	}
	if math.Abs(cycles-chipCycles) > 1e-6*chipCycles {
		t.Errorf("class link cycles sum to %g, chips total %g", cycles, chipCycles)
	}
}

// The mixed plan must actually change the executed schedules: with
// MHSA syncs on the ring and FFN syncs on the tree, the run differs
// from both uniform runs.
func TestPlanMixedExecutesBothShapes(t *testing.T) {
	plan := collective.Plan{}.
		With(collective.PrefillMHSA, hw.TopoRing).
		With(collective.PrefillFFN, hw.TopoTree)
	mixed := runPlanned(t, plan, hw.TopoTree, 8, model.Prompt)
	tree := runPlanned(t, collective.Plan{}, hw.TopoTree, 8, model.Prompt)
	ring := runPlanned(t, collective.Plan{}, hw.TopoRing, 8, model.Prompt)
	if mixed.TotalCycles == tree.TotalCycles || mixed.TotalCycles == ring.TotalCycles {
		t.Errorf("mixed plan cycles %v coincide with a uniform run (tree %v, ring %v)",
			mixed.TotalCycles, tree.TotalCycles, ring.TotalCycles)
	}
	// Mixed runtime lies between the uniform extremes at this point.
	lo, hi := ring.TotalCycles, tree.TotalCycles
	if lo > hi {
		lo, hi = hi, lo
	}
	if mixed.TotalCycles < lo || mixed.TotalCycles > hi {
		t.Errorf("mixed plan cycles %v outside [%v, %v]", mixed.TotalCycles, lo, hi)
	}
}

// Decode-mode runs execute the decode classes, and a prefill-only plan
// has no effect on them.
func TestPlanModeSelectsClasses(t *testing.T) {
	res := runPlanned(t, collective.Plan{}, hw.TopoTree, 8, model.Autoregressive)
	if len(res.ByClass) != 2 ||
		res.ByClass[0].Class != collective.DecodeMHSA ||
		res.ByClass[1].Class != collective.DecodeFFN {
		t.Fatalf("AR classes = %v", res.ByClass)
	}
	prefillOnly := collective.Plan{}.
		With(collective.PrefillMHSA, hw.TopoRing).
		With(collective.PrefillFFN, hw.TopoRing)
	planned := runPlanned(t, prefillOnly, hw.TopoTree, 8, model.Autoregressive)
	if planned.TotalCycles != res.TotalCycles {
		t.Errorf("prefill-only plan changed an AR run: %v vs %v", planned.TotalCycles, res.TotalCycles)
	}
}

// The replicated baseline's two exchanges carry their own classes.
func TestPlanReplicatedClasses(t *testing.T) {
	p, err := partition.NewReplicated(model.TinyLlama42M(), 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.NewBatched(p, hw.Siracusa(), model.Prompt, 128, 1, deploy.Options{
		SyncPlan: collective.Plan{}.With(collective.KVExchange, hw.TopoRing),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByClass) != 2 ||
		res.ByClass[0].Class != collective.KVExchange ||
		res.ByClass[1].Class != collective.OutputExchange {
		t.Fatalf("replicated classes = %v", res.ByClass)
	}
	if res.ByClass[0].Topology != hw.TopoRing || res.ByClass[1].Topology != hw.TopoTree {
		t.Errorf("exchange topologies %s/%s, want ring/tree",
			res.ByClass[0].Topology, res.ByClass[1].Topology)
	}
}

// A plan routing a class over a network that does not wire that
// shape's edges must fail at lowering, before any simulation runs.
func TestPlanUnwiredEdgeRejected(t *testing.T) {
	// Wire only the tree edges of 4 chips under GroupSize 4 (star-like
	// hub on chip 0): the ring's 3->0 edge exists, but 1->2 does not.
	edges := map[hw.Edge]hw.LinkClass{}
	for c := 1; c < 4; c++ {
		edges[hw.Edge{From: 0, To: c}] = hw.MIPI()
		edges[hw.Edge{From: c, To: 0}] = hw.MIPI()
	}
	net, err := hw.TableNetwork(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The base tree lowers fine on this wiring...
	if _, err := tryRunPlanned(collective.Plan{}, hw.TopoTree, net, 4, model.Prompt); err != nil {
		t.Fatalf("base tree on hub wiring failed: %v", err)
	}
	// ... but a plan binding an active class to the ring must be
	// rejected.
	plan := collective.Plan{}.With(collective.PrefillMHSA, hw.TopoRing)
	_, err = tryRunPlanned(plan, hw.TopoTree, net, 4, model.Prompt)
	if err == nil {
		t.Fatal("ring-planned class on a hub-only wiring accepted")
	}
	if !strings.Contains(err.Error(), "collective plan") {
		t.Errorf("error %q does not name the collective plan", err)
	}
	// A binding on a class the run never executes must neither fail
	// nor change the run: the decode half of a merged prefill+decode
	// plan is inert in prompt mode, even on a wiring that cannot
	// lower its shape.
	decodeOnly := collective.Plan{}.
		With(collective.DecodeMHSA, hw.TopoRing).
		With(collective.DecodeFFN, hw.TopoRing)
	planned, err := tryRunPlanned(decodeOnly, hw.TopoTree, net, 4, model.Prompt)
	if err != nil {
		t.Fatalf("inactive ring binding rejected on a hub-only wiring: %v", err)
	}
	base, err := tryRunPlanned(collective.Plan{}, hw.TopoTree, net, 4, model.Prompt)
	if err != nil {
		t.Fatal(err)
	}
	if planned.TotalCycles != base.TotalCycles {
		t.Errorf("inactive binding changed the run: %v vs %v cycles",
			planned.TotalCycles, base.TotalCycles)
	}
}
