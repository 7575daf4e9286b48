package hw

import "testing"

func TestNetworkEdgesUniform(t *testing.T) {
	net := UniformNetwork(MIPI())
	edges, err := NetworkEdges(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 12 {
		t.Fatalf("uniform over 4 chips materialized %d edges, want 12", len(edges))
	}
	for e, c := range edges {
		if c != MIPI() {
			t.Fatalf("edge %v got class %+v, want MIPI", e, c)
		}
	}
	// Round trip: materializing and re-registering must reproduce the
	// resolved classes exactly.
	tbl, err := TableNetwork(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if from == to {
				continue
			}
			want, _ := net.LinkFor(from, to)
			got, err := tbl.LinkFor(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("edge %d->%d: table resolves %+v, network %+v", from, to, got, want)
			}
		}
	}
}

func TestNetworkEdgesClustered(t *testing.T) {
	local, back := MIPI(), MIPI().Slower(10)
	net := ClusteredNetwork(local, back, 2)
	edges, err := NetworkEdges(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := edges[Edge{From: 0, To: 1}]; got != local {
		t.Fatalf("intra-cluster edge got %+v, want local", got)
	}
	if got := edges[Edge{From: 0, To: 2}]; got != back {
		t.Fatalf("inter-cluster edge got %+v, want backhaul", got)
	}
}

func TestNetworkEdgesTableRestricts(t *testing.T) {
	net, err := TableNetwork(map[Edge]LinkClass{
		{From: 0, To: 1}: MIPI(),
		{From: 1, To: 0}: MIPI(),
		{From: 5, To: 6}: MIPI(),
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := NetworkEdges(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("restricted table materialized %d edges, want 2", len(edges))
	}
	if _, err := NetworkEdges(UniformNetwork(MIPI()), 1); err == nil {
		t.Fatal("materializing over 1 chip should fail")
	}
}

func TestTorusNetworkRoundTrip(t *testing.T) {
	a, err := TorusNetwork(4, 4, MIPI())
	if err != nil {
		t.Fatal(err)
	}
	b, err := TorusNetwork(4, 4, MIPI())
	if err != nil {
		t.Fatal(err)
	}
	// Equal parameters intern to the same content digest, so the two
	// values compare equal — the evalpool cache-key property.
	if a != b {
		t.Fatalf("equal torus parameters produced unequal networks: %v vs %v", a, b)
	}
	edges, err := NetworkEdges(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 16 chips x degree 4, both directions.
	if len(edges) != 64 {
		t.Fatalf("4x4 torus has %d directed edges, want 64", len(edges))
	}
	rt, err := TableNetwork(edges, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rt != a {
		t.Fatal("re-registering the torus edge table changed the digest")
	}
}

func TestTorusNetworkLinkFor(t *testing.T) {
	net, err := TorusNetwork(4, 4, MIPI())
	if err != nil {
		t.Fatal(err)
	}
	// Chip 5 = (1,1): neighbours 4, 6, 1, 9.
	for _, to := range []int{4, 6, 1, 9} {
		if _, err := net.LinkFor(5, to); err != nil {
			t.Fatalf("torus neighbour 5->%d should be wired: %v", to, err)
		}
	}
	if _, err := net.LinkFor(5, 10); err == nil {
		t.Fatal("torus diagonal 5->10 should be unwired")
	}
	// Wraparound: chip 0 = (0,0) reaches (3,0)=3 and (0,3)=12.
	for _, to := range []int{3, 12} {
		if _, err := net.LinkFor(0, to); err != nil {
			t.Fatalf("torus wraparound 0->%d should be wired: %v", to, err)
		}
	}
	// A 1xN torus degenerates to a ring.
	ring, err := TorusNetwork(1, 4, MIPI())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring.LinkFor(0, 1); err != nil {
		t.Fatal("1x4 torus should wire the ring edge 0->1")
	}
	if _, err := ring.LinkFor(0, 2); err == nil {
		t.Fatal("1x4 torus should not wire the chord 0->2")
	}
	if _, err := TorusNetwork(1, 1, MIPI()); err == nil {
		t.Fatal("1x1 torus should be rejected")
	}
}
