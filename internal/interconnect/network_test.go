package interconnect

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mcudist/internal/hw"
)

// Every hop of a uniform-network schedule resolves to the one class,
// and Classes collapses to exactly that class — the invariant that
// keeps the uniform path byte-identical to the pre-refactor single
// hw.Link.
func TestAnnotateUniformSingleClass(t *testing.T) {
	for _, topo := range hw.Topologies() {
		sched, err := NewSchedule(netParams(topo, 4), 8)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if len(sched.Classes) != 1 || sched.Classes[0] != hw.MIPI() {
			t.Errorf("%s: classes = %+v, want exactly [MIPI]", topo, sched.Classes)
		}
		for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
			if c := sched.classOf(&h); c != hw.MIPI() {
				t.Errorf("%s: hop %d->%d class %+v, want MIPI", topo, h.From, h.To, c)
			}
		}
	}
}

// Under the two-tier clustered network, hops inside a cluster carry
// the local class and hops crossing a cluster boundary the backhaul
// class, for every topology shape.
func TestAnnotateClusteredSplitsClasses(t *testing.T) {
	local := hw.MIPI()
	back := hw.MIPI().Slower(10)
	for _, topo := range hw.Topologies() {
		p := netParams(topo, 4)
		p.Network = hw.ClusteredNetwork(local, back, 4)
		sched, err := NewSchedule(p, 16)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		sawBackhaul := false
		for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
			want := local
			if h.From/4 != h.To/4 {
				want = back
				sawBackhaul = true
			}
			if c := sched.classOf(&h); c != want {
				t.Errorf("%s: hop %d->%d class %+v, want %+v", topo, h.From, h.To, c, want)
			}
		}
		if !sawBackhaul {
			t.Errorf("%s: 16 chips in clusters of 4 produced no backhaul hop", topo)
		}
		if len(sched.Classes) != 2 {
			t.Errorf("%s: classes = %+v, want [local backhaul]", topo, sched.Classes)
		}
	}
}

// A per-edge table that wires only the ring must lower the ring but
// reject any topology routing over unwired pairs — the "hops over
// undefined edges" rejection, surfaced at lowering time.
func TestTableNetworkRejectsUnwiredTopology(t *testing.T) {
	const n = 4
	edges := map[hw.Edge]hw.LinkClass{}
	for i := 0; i < n; i++ {
		edges[hw.Edge{From: i, To: (i + 1) % n}] = hw.MIPI()
	}
	ringOnly, err := hw.TableNetwork(edges, n)
	if err != nil {
		t.Fatal(err)
	}

	p := netParams(hw.TopoRing, 4)
	p.Network = ringOnly
	sched, err := NewSchedule(p, n)
	if err != nil {
		t.Fatalf("ring over a ring-wired table: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	p.Topology = hw.TopoFullyConnected
	if _, err := NewSchedule(p, n); err == nil {
		t.Fatal("fully-connected lowered over a ring-wired table")
	} else if !strings.Contains(err.Error(), "not wired") {
		t.Errorf("error does not name the unwired edge: %v", err)
	}

	// The tree reduces 1->0, 2->0, 3->0: only 1->0 is (implicitly
	// absent) — every tree hop except ring-adjacent ones is unwired.
	p.Topology = hw.TopoTree
	if _, err := NewSchedule(p, n); err == nil {
		t.Fatal("tree lowered over a ring-wired table")
	}
}

// Validate must reject a hop whose class was never resolved (the
// undefined-edge marker), independently of how the schedule was built:
// a key index past the schedule's keys, a key whose class index is
// past the classes, a key naming the zero class, and every hop of a
// bare schedule.
func TestValidateRejectsUndefinedEdge(t *testing.T) {
	sched, err := NewSchedule(netParams(hw.TopoTree, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	past := *sched
	past.Reduce = append([]Hop{}, sched.Reduce...)
	past.Reduce[2].key = int32(len(sched.Keys))
	classPast := past
	classPast.Keys = append(append([]PriceKey{}, sched.Keys...), PriceKey{Class: len(sched.Classes), Frac: 1})
	zero := classPast
	zero.Classes = append(append([]hw.LinkClass{}, sched.Classes...), hw.LinkClass{})
	bare, err := NewBareSchedule(hw.TopoTree, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]*Schedule{"key past the keys": &past, "class past the classes": &classPast, "zero class": &zero, "bare": bare} {
		if err := corrupt.Validate(); err == nil {
			t.Errorf("%s: hop with an undefined link class validated", name)
		} else if !strings.Contains(err.Error(), "undefined edge") {
			t.Errorf("%s: error does not name the undefined edge: %v", name, err)
		} else if ref := validateReference(corrupt); ref == nil || ref.Error() != err.Error() {
			t.Errorf("%s: Validate says %q, the reference %v", name, err, ref)
		}
	}
}

// The lowered shapes carry one fraction per schedule, so each has one
// price key per class; a hand-built schedule whose class carries two
// fractions gets a key per (class, fraction) pair, and its counts split
// the same way.
func TestAnnotateKeysByClassAndFrac(t *testing.T) {
	p := netParams(hw.TopoTree, 4)
	p.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 4)
	for _, topo := range hw.Topologies() {
		p.Topology = topo
		sched, err := NewSchedule(p, 16)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if len(sched.Keys) != len(sched.Classes) {
			t.Errorf("%s: %d keys over %d classes, want one key per class", topo, len(sched.Keys), len(sched.Classes))
		}
		for _, h := range append(append([]Hop{}, sched.Reduce...), sched.Broadcast...) {
			if k := sched.Keys[h.Key()]; k.Frac != h.Frac || sched.Classes[k.Class] != sched.classOf(&h) {
				t.Fatalf("%s: hop %d->%d (fraction %g) keyed %+v", topo, h.From, h.To, h.Frac, k)
			}
		}
	}

	// Three chips reduce onto chip 0, chips 1 and 2 at two fractions
	// of one class, and chip 0 broadcasts both back.
	s := &Schedule{Topology: hw.TopoTree, N: 3, Chunks: 1, Depth: 1,
		Reduce: []Hop{
			{From: 1, To: 0, Frac: 0.5, FromAccumulated: true},
			{From: 2, To: 0, Frac: 1, FromAccumulated: true},
		},
		Broadcast: []Hop{{From: 0, To: 1, Frac: 0.5}, {From: 0, To: 2, Frac: 1}, {From: 0, To: 1, Frac: 0.5}},
		Final:     []Final{{Chip: 0, Frac: 1}},
	}
	if err := s.Annotate(hw.UniformNetwork(hw.MIPI())); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := []PriceKey{{Class: 0, Frac: 0.5}, {Class: 0, Frac: 1}}; !slices.Equal(s.Keys, want) {
		t.Fatalf("keys %+v, want %+v", s.Keys, want)
	}
	wantSends := []HopCount{{Chip: 1, Key: 0, Hops: 1}, {Chip: 2, Key: 1, Hops: 1}}
	wantAdds := []HopCount{{Chip: 0, Key: 0, Hops: 1}, {Chip: 0, Key: 1, Hops: 1}}
	wantBcast := []HopCount{{Chip: 0, Key: 0, Hops: 2}, {Chip: 0, Key: 1, Hops: 1}}
	if !slices.Equal(s.ReduceSends, wantSends) || !slices.Equal(s.ReduceAdds, wantAdds) || !slices.Equal(s.BroadcastSends, wantBcast) {
		t.Fatalf("counts %+v / %+v / %+v, want %+v / %+v / %+v",
			s.ReduceSends, s.ReduceAdds, s.BroadcastSends, wantSends, wantAdds, wantBcast)
	}
}

// A hop list changed after lowering no longer matches what Annotate
// recorded: Validate rejects a hop whose fraction left its key and
// counts that no longer match the lists, and annotating again mends
// both.
func TestValidateRejectsStaleAnnotation(t *testing.T) {
	p := netParams(hw.TopoRing, 4)
	for name, change := range map[string]func(s *Schedule){
		"fraction": func(s *Schedule) { s.Reduce[3].Frac = 1 },
		"counts":   func(s *Schedule) { s.Broadcast = append(s.Broadcast, s.Broadcast[0]) },
	} {
		sched, err := NewSchedule(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		change(sched)
		err = sched.Validate()
		if err == nil || !strings.Contains(err.Error(), "annotate the schedule again") {
			t.Errorf("%s: Validate = %v, want a stale annotation", name, err)
		} else if ref := validateReference(sched); ref == nil || ref.Error() != err.Error() {
			t.Errorf("%s: Validate says %q, the reference %v", name, err, ref)
		}
		if err := sched.Annotate(p.Network); err != nil {
			t.Fatal(err)
		}
		if err, ref := sched.Validate(), validateReference(sched); err != nil || ref != nil {
			t.Errorf("%s: re-annotated schedule: Validate = %v, reference = %v", name, err, ref)
		}
	}
}

// A NaN fraction is not in (0,1]: Validate rejects it on a hop and on a
// finalize, where comparisons alone let it through.
func TestValidateRejectsNaNFractions(t *testing.T) {
	for name, change := range map[string]func(s *Schedule){
		"hop":      func(s *Schedule) { s.Reduce[1].Frac = math.NaN() },
		"finalize": func(s *Schedule) { s.Final[0].Frac = math.NaN() },
	} {
		sched, err := NewSchedule(netParams(hw.TopoTree, 4), 8)
		if err != nil {
			t.Fatal(err)
		}
		change(sched)
		err = sched.Validate()
		if err == nil || !strings.Contains(err.Error(), "fraction NaN out of (0,1]") {
			t.Errorf("%s: Validate = %v, want a NaN fraction out of range", name, err)
		} else if ref := validateReference(sched); ref == nil || ref.Error() != err.Error() {
			t.Errorf("%s: Validate says %q, the reference %v", name, err, ref)
		}
	}
}

// Annotate takes hand-built schedules, so a hop off the board or a
// schedule over no chips is an error, not an index panic.
func TestAnnotateRejectsOutOfRangeHops(t *testing.T) {
	net := hw.UniformNetwork(hw.MIPI())
	for name, s := range map[string]*Schedule{
		"sender":   {N: 2, Chunks: 1, Reduce: []Hop{{From: 2, To: 0, Frac: 1}}},
		"receiver": {N: 2, Chunks: 1, Broadcast: []Hop{{From: 0, To: -1, Frac: 1}}},
		"no chips": {N: 0, Chunks: 1},
	} {
		if err := s.Annotate(net); err == nil {
			t.Errorf("%s: annotated", name)
		}
	}
}
