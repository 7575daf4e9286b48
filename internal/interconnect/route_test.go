package interconnect

import (
	"reflect"
	"testing"

	"mcudist/internal/hw"
)

func TestRouteDirectEdgePreferred(t *testing.T) {
	// Uniform and clustered networks wire every pair: the route is
	// always the direct edge, never a detour.
	for _, net := range []hw.Network{
		hw.UniformNetwork(hw.MIPI()),
		hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4),
	} {
		path, err := Route(net, 8, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(path, []int{2, 7}) {
			t.Fatalf("%s: route 2->7 = %v, want the direct edge", net, path)
		}
	}
}

func TestRouteMultiHopChain(t *testing.T) {
	// A daisy chain 0-1-2-3 (bidirectional): 0->3 must route through
	// every intermediate stage.
	edges := map[hw.Edge]hw.LinkClass{}
	for c := 0; c < 3; c++ {
		edges[hw.Edge{From: c, To: c + 1}] = hw.MIPI()
		edges[hw.Edge{From: c + 1, To: c}] = hw.MIPI()
	}
	net, err := hw.TableNetwork(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Route(net, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []int{0, 1, 2, 3}) {
		t.Fatalf("chain route 0->3 = %v, want [0 1 2 3]", path)
	}
	// Determinism: the same wiring routes the same path every time.
	again, _ := Route(net, 4, 0, 3)
	if !reflect.DeepEqual(path, again) {
		t.Fatalf("route not deterministic: %v vs %v", path, again)
	}
}

func TestRouteTorusAroundGap(t *testing.T) {
	// On a 4x4 torus, 0 -> 5 (diagonal neighbour) has no direct edge;
	// the shortest path is two hops through 1 or 4, and the low-index
	// tie-break picks 1.
	net, err := hw.TorusNetwork(4, 4, hw.MIPI())
	if err != nil {
		t.Fatal(err)
	}
	path, err := Route(net, 16, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(path, []int{0, 1, 5}) {
		t.Fatalf("torus route 0->5 = %v, want [0 1 5]", path)
	}
}

func TestRouteNoPath(t *testing.T) {
	// Two disconnected islands: 0-1 and 2-3.
	net, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{
		{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI(),
		{From: 2, To: 3}: hw.MIPI(), {From: 3, To: 2}: hw.MIPI(),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Route(net, 4, 0, 3); err == nil {
		t.Fatal("route across disconnected islands should fail")
	}
	if _, err := Route(net, 4, 1, 1); err == nil {
		t.Fatal("self-route should fail")
	}
}

func TestPipelineChainDirect(t *testing.T) {
	pc, err := NewPipelineChain(hw.UniformNetwork(hw.MIPI()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.hops) != 3 {
		t.Fatalf("uniform 4-chip chain has %d hops, want 3", len(pc.hops))
	}
	for c := 0; c < 3; c++ {
		seg := pc.Segment(c)
		if len(seg) != 1 || seg[0].From != c || seg[0].To != c+1 {
			t.Fatalf("boundary %d segment = %+v, want one direct hop", c, seg)
		}
		if cls := pc.Classes[pc.Keys[seg[0].Key()].Class]; cls != hw.MIPI() {
			t.Fatalf("boundary %d class = %+v, want MIPI", c, cls)
		}
	}
}

func TestPipelineChainRoutesAroundMissingEdge(t *testing.T) {
	// Chain wiring with the 1->2 edge missing but a detour through
	// chip 3 available: the boundary re-routes 1->3->2.
	edges := map[hw.Edge]hw.LinkClass{
		{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI(),
		{From: 2, To: 3}: hw.MIPI(), {From: 3, To: 2}: hw.MIPI(),
		{From: 1, To: 3}: hw.MIPI(), {From: 3, To: 1}: hw.MIPI(),
	}
	net, err := hw.TableNetwork(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPipelineChain(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	seg := pc.Segment(1)
	if len(seg) != 2 || seg[0] != (Hop{From: 1, To: 3, Frac: 1}) || seg[1] != (Hop{From: 3, To: 2, Frac: 1}) {
		t.Fatalf("boundary 1 segment = %+v, want 1->3->2", seg)
	}
	if len(pc.Classes) != 1 || pc.Classes[0] != hw.MIPI() {
		t.Fatalf("chain classes = %+v, want exactly [MIPI]", pc.Classes)
	}
	if len(pc.hops) != 4 {
		t.Fatalf("chain has %d hops, want 4", len(pc.hops))
	}
}

func TestCachedPipelineChainInterns(t *testing.T) {
	net := hw.UniformNetwork(hw.MIPI())
	a, err := CachedPipelineChain(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedPipelineChain(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal (network, chips) pairs should share one interned chain")
	}
}

// ResetScheduleCache drops interned pipeline chains along with the
// collective schedules: a chain fetched after a reset is lowered
// afresh, as in a new process.
func TestResetScheduleCacheDropsChains(t *testing.T) {
	net := hw.UniformNetwork(hw.MIPI())
	a, err := CachedPipelineChain(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	ResetScheduleCache()
	b, err := CachedPipelineChain(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("the chain fetched after a reset is the one interned before it")
	}
}
