package interconnect

import (
	"sync"
	"testing"

	"mcudist/internal/hw"
)

// The cache must hand back the identical schedule for repeated
// requests of one (network, chips, topology) triple, paying exactly
// one lowering.
func TestCachedScheduleInterns(t *testing.T) {
	ResetScheduleCache()
	p := netParams(hw.TopoRing, 4)
	before := Lowerings()
	a, err := CachedSchedule(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedSchedule(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated CachedSchedule returned distinct schedules")
	}
	if got := Lowerings() - before; got != 1 {
		t.Errorf("two requests paid %d lowerings, want 1", got)
	}
	fresh, err := NewSchedule(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Reduce) != len(a.Reduce) || len(fresh.Broadcast) != len(a.Broadcast) ||
		fresh.Chunks != a.Chunks || fresh.Depth != a.Depth {
		t.Error("interned schedule differs from a fresh lowering")
	}
}

// Distinct keys — a different chip count, topology, or network — must
// not collide.
func TestCachedScheduleKeysDistinct(t *testing.T) {
	ResetScheduleCache()
	p := netParams(hw.TopoTree, 4)
	a, err := CachedSchedule(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedSchedule(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("8- and 16-chip schedules interned to one entry")
	}
	pr := p
	pr.Topology = hw.TopoRing
	c, err := CachedSchedule(pr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Topology != hw.TopoRing {
		t.Errorf("ring request served %s", c.Topology)
	}
	pc := p
	pc.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	d, err := CachedSchedule(pc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Error("clustered network shares the uniform network's entry")
	}
	if len(d.Classes) != 2 {
		t.Errorf("clustered 8-chip tree resolved %d link classes, want 2", len(d.Classes))
	}
}

// The ring and the fully-connected exchange never consult GroupSize;
// platforms differing only in it must share one entry. The tree-lowered
// shapes genuinely depend on it and must not.
func TestCachedScheduleGroupNormalization(t *testing.T) {
	ResetScheduleCache()
	a2, a4 := netParams(hw.TopoRing, 2), netParams(hw.TopoRing, 4)
	ra, err := CachedSchedule(a2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := CachedSchedule(a4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("ring schedules with different (unused) group sizes not shared")
	}
	ta, err := CachedSchedule(netParams(hw.TopoTree, 2), 8)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := CachedSchedule(netParams(hw.TopoTree, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if ta == tb {
		t.Error("tree schedules with different group sizes interned together")
	}
	if ta.Depth == tb.Depth {
		t.Errorf("groups-of-2 and groups-of-4 trees both have depth %d", ta.Depth)
	}
}

// Failed lowerings are cached too: a table network that leaves
// collective edges unwired keeps failing without growing the counter
// per request.
func TestCachedScheduleCachesErrors(t *testing.T) {
	ResetScheduleCache()
	// Wire only the 0->1 edge: every collective shape over 4 chips
	// routes over missing edges.
	net, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{{From: 0, To: 1}: hw.MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := netParams(hw.TopoRing, 4)
	p.Network = net
	before := Lowerings()
	if _, err := CachedSchedule(p, 4); err == nil {
		t.Fatal("unwired ring lowered")
	}
	if _, err := CachedSchedule(p, 4); err == nil {
		t.Fatal("unwired ring lowered on the second request")
	}
	if got := Lowerings() - before; got != 1 {
		t.Errorf("two failing requests paid %d lowerings, want 1", got)
	}
}

// Concurrent requests — the evalpool workers' access pattern — must be
// race-free and still pay one lowering per distinct key. Run under
// `go test -race`.
func TestCachedScheduleConcurrent(t *testing.T) {
	ResetScheduleCache()
	topos := hw.Topologies()
	before := Lowerings()
	var wg sync.WaitGroup
	got := make([]*Schedule, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := netParams(topos[g%len(topos)], 4)
			s, err := CachedSchedule(p, 8)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = s
		}(g)
	}
	wg.Wait()
	if lw := Lowerings() - before; lw != uint64(len(topos)) {
		t.Errorf("64 concurrent requests over %d topologies paid %d lowerings", len(topos), lw)
	}
	for g, s := range got {
		if s == nil || s.Topology != topos[g%len(topos)] {
			t.Fatalf("goroutine %d got %v", g, s)
		}
	}
}
