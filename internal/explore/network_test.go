package explore

import (
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// clustered10 is the two-tier test board: clusters of 4 MIPI-linked
// chips joined by a 10x-slower backhaul.
func clustered10() hw.Network {
	return hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
}

// runTopologies runs the workload on base under every topology, in
// enum order.
func runTopologies(t *testing.T, base core.System, wl core.Workload) []*core.Report {
	t.Helper()
	var out []*core.Report
	for _, topo := range hw.Topologies() {
		sys := base
		sys.HW.Topology = topo
		rep, err := core.Run(sys, wl)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		out = append(out, rep)
	}
	return out
}

// fastest returns the index of the lowest-latency report, ties going
// to the earliest.
func fastest(reps []*core.Report) int {
	best := 0
	for i, r := range reps {
		if r.Cycles < reps[best].Cycles {
			best = i
		}
	}
	return best
}

// The best topology must weigh the backhaul penalty: on the uniform
// network the 8-chip TinyLlama collectives belong to the ring, but
// under the clustered backhaul the ring serializes its slow boundary
// hops 2(N-1) times and the fully-connected exchange — one hop level,
// every pairwise send on its own link — takes over. At 8 chips every
// topology crosses the boundary, and the backhaul only slows links
// (same pJ/B), so each clustered run is strictly slower than its
// uniform twin and uses no less energy.
func TestBestTopologyAwareOfBackhaul(t *testing.T) {
	topos := hw.Topologies()
	for _, mode := range []model.Mode{model.Autoregressive, model.Prompt} {
		wl := core.Workload{Model: model.TinyLlama42M(), Mode: mode}

		uniform := runTopologies(t, core.DefaultSystem(8), wl)
		best := fastest(uniform)
		if topos[best] != hw.TopoRing {
			t.Errorf("%v uniform: best topology %v, want ring", mode, topos[best])
		}

		sys := core.DefaultSystem(8)
		sys.HW.Network = clustered10()
		clustered := runTopologies(t, sys, wl)
		cbest := fastest(clustered)
		if topos[cbest] != hw.TopoFullyConnected {
			t.Errorf("%v clustered: best topology %v, want fully-connected", mode, topos[cbest])
		}
		if clustered[cbest].Cycles <= uniform[best].Cycles {
			t.Errorf("%v: clustered best %g cycles not above uniform best %g", mode, clustered[cbest].Cycles, uniform[best].Cycles)
		}
		for i, topo := range topos {
			u, c := uniform[i], clustered[i]
			if c.Cycles <= u.Cycles || c.Energy.Total() < u.Energy.Total() {
				t.Errorf("%v %s: clustered (%g cycles, %g J) not dominated by uniform (%g cycles, %g J)",
					mode, topo, c.Cycles, c.Energy.Total(), u.Cycles, u.Energy.Total())
			}
		}
	}
}
