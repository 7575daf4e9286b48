package explore

import (
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/perfsim"
)

// On a single chip every topology degenerates to no communication at
// all, so the frontier must agree across shapes.
func TestTopologySingleChipEquivalence(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	var first *core.Report
	for _, topo := range hw.Topologies() {
		sys := core.DefaultSystem(1)
		sys.HW.Topology = topo
		rep, err := core.Run(sys, wl)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Cycles != first.Cycles || rep.C2CBytes != 0 {
			t.Errorf("%s on one chip: %.0f cycles / %d link bytes, want %.0f / 0",
				topo, rep.Cycles, rep.C2CBytes, first.Cycles)
		}
	}
}

// Every simulation attributes its chip-to-chip link time to the
// synchronization classes that produced it, each under the run
// topology, and the per-class cycles sum to the simulator's per-chip
// C2C totals.
func TestClassCyclesSumToChipTotals(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt}
	for _, topo := range hw.Topologies() {
		for _, n := range []int{2, 8} {
			sys := core.DefaultSystem(n)
			sys.HW.Topology = topo
			d, err := core.Lower(sys, wl)
			if err != nil {
				t.Fatal(err)
			}
			res, err := perfsim.Run(d)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.ByClass) != 2 {
				t.Fatalf("%s/%d: %d classes, want 2", topo, n, len(res.ByClass))
			}
			var sum float64
			for _, cs := range res.ByClass {
				if cs.Topology != topo {
					t.Errorf("%s/%d: class %s ran on %s", topo, n, cs.Class, cs.Topology)
				}
				sum += cs.C2CCycles
			}
			var chips float64
			for _, st := range res.PerChip {
				chips += st.C2CCycles
			}
			if sum != chips {
				t.Errorf("%s/%d: class cycles %g != chip totals %g", topo, n, sum, chips)
			}
		}
	}
}
