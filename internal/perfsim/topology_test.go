package perfsim

import (
	"math"
	"testing"

	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/trace"
)

func runTopo(t *testing.T, topo hw.Topology, n int, mode model.Mode) (*Result, *deploy.Deployment, *trace.Timeline) {
	t.Helper()
	p, err := partition.NewTensorParallel(model.TinyLlama42M(), n)
	if err != nil {
		t.Fatal(err)
	}
	hwp := hw.Siracusa()
	hwp.Topology = topo
	d, err := deploy.NewBatched(p, hwp, mode, 128, 1, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tl trace.Timeline
	res, err := RunTraced(d, &tl)
	if err != nil {
		t.Fatal(err)
	}
	return res, d, &tl
}

// Link traffic under every topology must equal the schedule's
// collective byte count times the number of synchronizations (up to
// the ring's per-tile chunk rounding).
func TestTopologyTrafficConservation(t *testing.T) {
	for _, topo := range hw.Topologies() {
		for _, n := range []int{2, 4, 8} {
			res, d, _ := runTopo(t, topo, n, model.Prompt)
			sched, err := interconnect.NewSchedule(d.HW, n)
			if err != nil {
				t.Fatal(err)
			}
			sync := d.Stages[0].Steps[1].Sync
			want := float64(res.Syncs) * float64(sched.CollectiveBytes(sync.ReducePayload, sync.BcastPayload))
			got := float64(res.TotalC2CBytes)
			if math.Abs(got-want) > 0.01*want+float64(res.Syncs*n) {
				t.Errorf("%s n=%d: %g link bytes, want ~%g", topo, n, got, want)
			}
			if res.Topology != topo {
				t.Errorf("%s n=%d: result reports topology %s", topo, n, res.Topology)
			}
		}
	}
}

// Every resource — clusters, DMAs, and the per-edge links of every
// topology — must stay exclusive: no overlapping spans.
func TestTopologyTraceExclusivity(t *testing.T) {
	for _, topo := range hw.Topologies() {
		for _, mode := range []model.Mode{model.Autoregressive, model.Prompt} {
			_, _, tl := runTopo(t, topo, 8, mode)
			if err := checkNoOverlap(tl); err != nil {
				t.Errorf("%s/%s: %v", topo, mode, err)
			}
		}
	}
}

// The schedule depth the result reports: tree log, star 1,
// ring N-1, fully-connected 1.
func TestTopologyDepthReported(t *testing.T) {
	for _, tc := range []struct {
		topo  hw.Topology
		depth int
	}{
		{hw.TopoTree, 2},
		{hw.TopoStar, 1},
		{hw.TopoRing, 7},
		{hw.TopoFullyConnected, 1},
	} {
		res, _, _ := runTopo(t, tc.topo, 8, model.Autoregressive)
		if res.TreeDepth != tc.depth {
			t.Errorf("%s: depth %d, want %d", tc.topo, res.TreeDepth, tc.depth)
		}
	}
}

// All four topologies compute the same model: compute and L2/L1
// traffic on the non-finalizing chips is topology-invariant (the
// finalizing chips differ by design: the ring shards the root work,
// the fully-connected exchange replicates it, and accumulation counts
// differ per shape). What must hold everywhere: every topology ends
// with the same per-chip L3 traffic and runs the same 2-per-block
// synchronization count.
func TestTopologyModelInvariants(t *testing.T) {
	base, _, _ := runTopo(t, hw.TopoTree, 8, model.Prompt)
	for _, topo := range []hw.Topology{hw.TopoStar, hw.TopoRing, hw.TopoFullyConnected} {
		res, _, _ := runTopo(t, topo, 8, model.Prompt)
		if res.Syncs != base.Syncs {
			t.Errorf("%s: %d syncs, want %d", topo, res.Syncs, base.Syncs)
		}
		for c := range res.PerChip {
			if res.PerChip[c].L3Bytes != base.PerChip[c].L3Bytes {
				t.Errorf("%s chip %d: L3 bytes %d, want %d",
					topo, c, res.PerChip[c].L3Bytes, base.PerChip[c].L3Bytes)
			}
		}
	}
}
