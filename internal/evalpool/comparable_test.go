package evalpool

import (
	"reflect"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// The memoized report cache keys on Point — the full (System,
// Workload) configuration, including the topology selector. Every
// field added to core.System, hw.Params, deploy.Options, or
// model.Config must keep the structs comparable, or the cache map
// silently stops compiling/deduplicating. This test turns that
// contract into a regression: it fails the moment someone adds a
// slice, map, or function field to any struct reachable from Point.
func TestPointStaysComparable(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Point{}),
		reflect.TypeOf(core.System{}),
		reflect.TypeOf(core.Workload{}),
		reflect.TypeOf(hw.Params{}),
		reflect.TypeOf(hw.Network{}),
		reflect.TypeOf(hw.LinkClass{}),
		reflect.TypeOf(collective.Plan{}),
	} {
		if !typ.Comparable() {
			t.Errorf("%s is no longer comparable; the evalpool cache key is broken", typ)
		}
	}
}

// Beyond static comparability, the key must behave: two value-equal
// configurations must collide on one cache entry, and flipping any
// axis — including the new topology field — must miss.
func TestPointKeyBehaviour(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	a := Point{System: core.DefaultSystem(8), Workload: wl}
	b := Point{System: core.DefaultSystem(8), Workload: wl}

	cache := map[Point]int{}
	cache[a]++
	cache[b]++
	if len(cache) != 1 || cache[a] != 2 {
		t.Fatalf("value-equal points did not collide: %d entries", len(cache))
	}

	ring := b
	ring.System.HW.Topology = hw.TopoRing
	cache[ring]++
	if len(cache) != 2 {
		t.Fatal("topology change did not produce a distinct cache key")
	}

	clustered := b
	clustered.System.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	cache[clustered]++
	if len(cache) != 3 {
		t.Fatal("network change did not produce a distinct cache key")
	}

	// Per-edge tables intern by canonical content digest: equal tables
	// must collide on one key, different tables must not.
	t1, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{{From: 1, To: 0}: hw.MIPI(), {From: 0, To: 1}: hw.MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := b, b
	ta.System.HW.Network = t1
	tb.System.HW.Network = t2
	cache[ta]++
	cache[tb]++
	if len(cache) != 4 || cache[ta] != 2 {
		t.Fatalf("equal per-edge tables did not collide on one cache key (%d entries)", len(cache))
	}

	// The per-sync collective plan is a cache axis too: equal plans
	// collide, a different binding misses.
	planned := b
	planned.System.Options.SyncPlan = collective.Plan{}.
		With(collective.DecodeMHSA, hw.TopoRing).
		With(collective.DecodeFFN, hw.TopoRing)
	samePlan := b
	samePlan.System.Options.SyncPlan = collective.Plan{}.
		With(collective.DecodeMHSA, hw.TopoRing).
		With(collective.DecodeFFN, hw.TopoRing)
	cache[planned]++
	cache[samePlan]++
	if len(cache) != 5 || cache[planned] != 2 {
		t.Fatalf("equal sync plans did not collide on one cache key (%d entries)", len(cache))
	}
	otherPlan := planned
	otherPlan.System.Options.SyncPlan = collective.Plan{}.
		With(collective.DecodeMHSA, hw.TopoRing)
	cache[otherPlan]++
	if len(cache) != 6 {
		t.Fatal("sync plan change did not produce a distinct cache key")
	}

	// The live pool must dedupe the same way: same config twice is
	// one simulation, a different topology is a second one.
	p := New(1)
	r1, err := p.Run(a.System, a.Workload)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(b.System, b.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical configurations returned distinct reports (cache miss)")
	}
	r3, err := p.Run(ring.System, ring.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("ring topology served the tree topology's cached report")
	}
	if r3.Cycles == r1.Cycles {
		t.Error("ring and tree reports coincide exactly; topology likely ignored")
	}
	r4, err := p.Run(clustered.System, clustered.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Error("clustered network served the uniform network's cached report")
	}
	if r4.Cycles == r1.Cycles {
		t.Error("clustered and uniform reports coincide exactly; network likely ignored")
	}
	r5, err := p.Run(planned.System, planned.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if r5 == r1 {
		t.Error("planned run served the uniform plan's cached report")
	}
	if r5.Cycles == r1.Cycles {
		t.Error("planned and unplanned reports coincide exactly; sync plan likely ignored")
	}
	r6, err := p.Run(samePlan.System, samePlan.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if r6 != r5 {
		t.Error("value-equal sync plans returned distinct reports (cache miss)")
	}
}
