package resilience

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/resultstore"
)

func TestParseFaults(t *testing.T) {
	faults, err := ParseFaults("drop:3, slow:0-1x10, straggle:2x2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{DropChip(3), SlowEdge(0, 1, 10), StraggleChip(2, 2)}
	if !reflect.DeepEqual(faults, want) {
		t.Fatalf("parsed %+v, want %+v", faults, want)
	}
	// The String spelling is canonical and round-trips through the
	// parser.
	if got := FaultsString(faults); got != "drop:3,slow:0-1x10,straggle:2x2" {
		t.Fatalf("faults spell as %q", got)
	}
	again, err := ParseFaults(FaultsString(faults))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("round trip %+v, want %+v", again, want)
	}
	for _, bad := range []string{"", "drop", "drop:x", "slow:0-1", "slow:ax10", "straggle:1", "melt:3"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("accepted bad fault spec %q", bad)
		}
	}
}

// FuzzParseFaults checks the fault-spec parser on arbitrary input: it
// never panics, and every spec it accepts renders (FaultsString) to a
// spelling that parses back to the same spelling. Spellings are
// compared rather than faults, so NaN factors, which the parser
// accepts and Perturb rejects, still match. The seed corpus in
// testdata/fuzz holds the TestParseFaults specs and the CI fault
// specs.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaults(spec)
		if err != nil {
			return
		}
		spelled := FaultsString(faults)
		again, err := ParseFaults(spelled)
		if err != nil {
			t.Fatalf("%q parsed, but its spelling %q does not: %v", spec, spelled, err)
		}
		if got := FaultsString(again); got != spelled {
			t.Fatalf("%q: spelling %q parses back as %q", spec, spelled, got)
		}
	})
}

func TestPerturbSlowEdge(t *testing.T) {
	sys := core.DefaultSystem(4)
	deg, remap, err := Perturb(sys, SlowEdge(0, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if deg.Chips != 4 || !reflect.DeepEqual(remap, []int{0, 1, 2, 3}) {
		t.Fatalf("slow-edge changed chips/remap: %d %v", deg.Chips, remap)
	}
	slow, err := deg.HW.Network.LinkFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := hw.MIPI().Slower(10); slow != want {
		t.Fatalf("slowed edge class %+v, want %+v", slow, want)
	}
	rev, _ := deg.HW.Network.LinkFor(1, 0)
	if rev != hw.MIPI().Slower(10) {
		t.Fatalf("reverse direction not slowed: %+v", rev)
	}
	untouched, _ := deg.HW.Network.LinkFor(2, 3)
	if untouched != hw.MIPI() {
		t.Fatalf("unrelated edge changed: %+v", untouched)
	}
}

func TestPerturbDropChipRenumbers(t *testing.T) {
	// Daisy chain 0-1-2-3 with a repair link 1-3: dropping chip 2
	// must remove its edges and renumber 3 -> 2.
	edges := map[hw.Edge]hw.LinkClass{}
	wire := func(a, b int) {
		edges[hw.Edge{From: a, To: b}] = hw.MIPI()
		edges[hw.Edge{From: b, To: a}] = hw.MIPI()
	}
	wire(0, 1)
	wire(1, 2)
	wire(2, 3)
	wire(1, 3)
	net, err := hw.TableNetwork(edges)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.DefaultSystem(4)
	sys.HW.Network = net
	deg, remap, err := Perturb(sys, DropChip(2))
	if err != nil {
		t.Fatal(err)
	}
	if deg.Chips != 3 || !reflect.DeepEqual(remap, []int{0, 1, -1, 2}) {
		t.Fatalf("drop chip 2: chips=%d remap=%v", deg.Chips, remap)
	}
	kept, ok := hw.TableEdges(deg.HW.Network.TableDigest)
	if !ok {
		t.Fatal("degraded table not registered")
	}
	// Surviving edges: 0<->1 and old 1<->3 renumbered to 1<->2.
	want := map[hw.Edge]hw.LinkClass{
		{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI(),
		{From: 1, To: 2}: hw.MIPI(), {From: 2, To: 1}: hw.MIPI(),
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("surviving edges %+v, want %+v", kept, want)
	}
}

func TestPerturbStraggler(t *testing.T) {
	sys := core.DefaultSystem(8)
	deg, _, err := Perturb(sys, StraggleChip(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if deg.Options.StragglerChip != 5 || deg.Options.StragglerFactor != 0.5 {
		t.Fatalf("straggler options %+v, want chip 5 at factor 0.5", deg.Options)
	}
	// Dropping a lower chip remaps the straggler's id.
	deg, _, err = Perturb(sys, DropChip(1), StraggleChip(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if deg.Chips != 7 || deg.Options.StragglerChip != 4 {
		t.Fatalf("drop+straggle: chips=%d straggler=%d, want 7 and 4", deg.Chips, deg.Options.StragglerChip)
	}
}

func TestPerturbRejectsBadFaults(t *testing.T) {
	sys := core.DefaultSystem(4)
	cases := [][]Fault{
		nil,
		{DropChip(4)},
		{DropChip(-1)},
		{SlowEdge(0, 1, 0.5)},
		{StraggleChip(0, 0.5)},
		{StraggleChip(9, 2)},
		{StraggleChip(0, 2), StraggleChip(1, 2)},
		{DropChip(2), StraggleChip(2, 2)},
		{DropChip(0), DropChip(1), DropChip(2)},
	}
	for _, faults := range cases {
		if _, _, err := Perturb(sys, faults...); err == nil {
			t.Errorf("accepted faults %v", faults)
		}
	}
	// Slowing an unwired edge is an error, not a silent no-op.
	chain, err := hw.TableNetwork(map[hw.Edge]hw.LinkClass{
		{From: 0, To: 1}: hw.MIPI(), {From: 1, To: 0}: hw.MIPI(),
		{From: 1, To: 2}: hw.MIPI(), {From: 2, To: 1}: hw.MIPI(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys = core.DefaultSystem(3)
	sys.HW.Network = chain
	if _, _, err := Perturb(sys, SlowEdge(0, 2, 10)); err == nil {
		t.Error("slowed an unwired edge")
	}
}

// Perturb itself rejects a non-finite factor for both fault kinds.
// Unchecked, an infinite straggle factor becomes StragglerFactor =
// 1/+Inf = 0, which the simulator reads as "no straggler", so the
// "degraded" system prices exactly like the pristine one, and an
// infinite slow-edge factor fails only inside the network table.
func TestPerturbRejectsNonFiniteFactors(t *testing.T) {
	sys := core.DefaultSystem(8)
	for _, factor := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, tc := range []struct {
			fault Fault
			want  string
		}{
			{StraggleChip(3, factor), "straggle factor"},
			{SlowEdge(0, 1, factor), "slow-edge factor"},
		} {
			deg, _, err := Perturb(sys, tc.fault)
			if err == nil {
				t.Errorf("%v accepted: straggler factor %g", tc.fault, deg.Options.StragglerFactor)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %q does not name the %s", tc.fault, err, tc.want)
			}
		}
	}
}

// The acceptance criterion the cache tiers rest on: a perturbed system
// can never share an evalpool/resultstore digest with the pristine
// one, because the perturbation rides in the network table digest (or
// the straggler options), both part of the cache key.
func TestPerturbedDigestNeverCollides(t *testing.T) {
	sys := core.DefaultSystem(8)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt, SeqLen: 128}
	pristine := resultstore.Digest(sys, wl)
	for _, faults := range [][]Fault{
		{DropChip(3)},
		{SlowEdge(0, 1, 10)},
		{StraggleChip(3, 2)},
		{DropChip(3), SlowEdge(0, 1, 10)},
	} {
		deg, _, err := Perturb(sys, faults...)
		if err != nil {
			t.Fatal(err)
		}
		if d := resultstore.Digest(deg, wl); d == pristine {
			t.Errorf("faults %v: degraded digest collides with pristine", faults)
		}
	}
	// Materializing the pristine wiring into a table (no faults beyond
	// a 1x slow, a no-op on rates) still changes the digest: a table
	// network is a different description than a uniform profile, and
	// the digest is honest about it.
	deg, _, err := Perturb(sys, SlowEdge(0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := resultstore.Digest(deg, wl); d == pristine {
		t.Error("materialized table digest collides with the uniform profile")
	}
}

// A link slowdown every validator accepts — a positive, finite
// bandwidth or slow-edge factor — can still overflow a transfer time to
// +Inf cycles. The simulator must report that as an error instead of a
// runtime of +Inf (which printed a NaN speedup and exited 0). The three
// spellings: a clustered backhaul 1e308x slower, a slow:0-1x1e308
// fault, and a netlist class of 1e-300 B/s.
func TestOverflowingLinkIsAnError(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	ring := core.DefaultSystem(8)
	ring.HW.Topology = hw.TopoRing

	backhaul := ring
	backhaul.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(1e308), 4)

	faults, err := ParseFaults("slow:0-1x1e308")
	if err != nil {
		t.Fatal(err)
	}
	slowed, _, err := Degrade(ring, wl.Model, faults...)
	if err != nil {
		t.Fatal(err)
	}

	nl, err := ParseNetlist(strings.NewReader("chips 2\nclass m 1e-300 256 100\nlink 0 1 m bidi\n"))
	if err != nil {
		t.Fatal(err)
	}
	wired := core.DefaultSystem(2)
	if wired.HW.Network, err = nl.Network(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		sys  core.System
	}{
		{"backhaul 1e308", backhaul},
		{"slow:0-1x1e308", slowed},
		{"netlist class 1e-300 B/s", wired},
	} {
		rep, err := core.Run(tc.sys, wl)
		if err == nil {
			t.Errorf("%s: accepted with %g cycles", tc.name, rep.Cycles)
			continue
		}
		if !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%s: error %q does not say the runtime is not finite", tc.name, err)
		}
	}
}
