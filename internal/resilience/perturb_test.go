package resilience

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/model"
	"mcudist/internal/partition"
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
	net, err := hw.TableNetwork(edges, 4)
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
	kept, err := hw.NetworkEdges(deg.HW.Network, deg.Chips)
	if err != nil {
		t.Fatal(err)
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

// A system's own straggler or degraded link on a chip it does not have
// used to panic Perturb (index out of range) when it remapped them;
// it is an error naming the chip.
func TestPerturbRejectsOptionChipsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts deploy.Options
	}{
		{"straggler", deploy.Options{StragglerChip: 99, StragglerFactor: 0.5}},
		{"degraded link", deploy.Options{DegradedLinkChip: 99, DegradedLinkFactor: 0.25}},
		{"negative straggler", deploy.Options{StragglerChip: -2, StragglerFactor: 0.5}},
	} {
		sys := core.DefaultSystem(8)
		sys.Options = tc.opts
		_, _, err := Perturb(sys, DropChip(1))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		chip := fmt.Sprint(tc.opts.StragglerChip + tc.opts.DegradedLinkChip)
		if !strings.Contains(err.Error(), "chip "+chip+" ") {
			t.Errorf("%s: error %q does not name chip %s", tc.name, err, chip)
		}
	}
}

// Dropping the chip a system already throttles takes the straggler
// with it, as dropping a degraded link's chip takes the degradation:
// both options are cleared, never left pointing at chip -1.
func TestPerturbClearsDroppedOptionChips(t *testing.T) {
	sys := core.DefaultSystem(8)
	sys.Options.StragglerChip, sys.Options.StragglerFactor = 3, 0.5
	sys.Options.DegradedLinkChip, sys.Options.DegradedLinkFactor = 3, 0.25
	deg, _, err := Perturb(sys, DropChip(3))
	if err != nil {
		t.Fatal(err)
	}
	if o := deg.Options; o.StragglerChip != 0 || o.StragglerFactor != 0 || o.DegradedLinkChip != 0 || o.DegradedLinkFactor != 0 {
		t.Errorf("options after dropping their chip: %+v, want both cleared", o)
	}
	// The degraded board then runs as a 7-chip board without them.
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	plain, _, err := Perturb(core.DefaultSystem(8), DropChip(3))
	if err != nil {
		t.Fatal(err)
	}
	got, want := mustRun(t, deg, wl), mustRun(t, plain, wl)
	if got.Cycles != want.Cycles {
		t.Errorf("cycles %g, want the plain 7-chip board's %g", got.Cycles, want.Cycles)
	}
}

// Degrade idles the survivors past the largest legal chip count; a
// straggler among them no longer slows the run, and is cleared rather
// than left for core.Run to reject.
func TestDegradeClearsIdledStraggler(t *testing.T) {
	// Four KV heads split at most 4 ways: 7 survivors run as 4 chips,
	// and old chip 6 (new chip 5) idles.
	cfg := model.TinyLlama42M()
	cfg.KVHeads = 4
	sys := core.DefaultSystem(8)
	sys.Options.StragglerChip, sys.Options.StragglerFactor = 6, 0.5
	deg, _, err := Degrade(sys, cfg, DropChip(0))
	if err != nil {
		t.Fatal(err)
	}
	if deg.Chips != 4 || deg.Options.StragglerFactor != 0 || deg.Options.StragglerChip != 0 {
		t.Errorf("degraded to %d chips with options %+v, want 4 chips and no straggler", deg.Chips, deg.Options)
	}
	// A straggler on a chip that stays in use is kept.
	sys.Options.StragglerChip = 2
	if deg, _, err = Degrade(sys, cfg, DropChip(0)); err != nil {
		t.Fatal(err)
	}
	if deg.Options.StragglerChip != 1 || deg.Options.StragglerFactor != 0.5 {
		t.Errorf("kept straggler options %+v, want chip 1 at 0.5", deg.Options)
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
	}, 3)
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
// one, because the perturbation rides in the view's digest (and the
// straggler options), both part of the cache key.
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
	// A 1x slow, a no-op on rates, still changes the digest: a view is
	// a different description than a uniform profile, and the digest is
	// honest about it.
	deg, _, err := Perturb(sys, SlowEdge(0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := resultstore.Digest(deg, wl); d == pristine {
		t.Error("1x-slowed view digest collides with the uniform profile")
	}
}

// A straggler leaves the wiring alone, yet its board still gets a view
// of its own (identity survivors, no overrides), never the bare base
// network: on the base, the 8-chip straggle:3x2 board would be the
// same configuration as the straggler ablation's 50%-speed point and
// share its cached report, so the resilience study's exact-simulation
// bill would change.
func TestStraggleOnlyGetsItsOwnView(t *testing.T) {
	sys := core.DefaultSystem(8)
	deg, _, err := Perturb(sys, StraggleChip(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if deg.HW.Network == sys.HW.Network || deg.HW.Network.Profile != hw.NetView {
		t.Fatalf("straggler board network %v, want a view over %v", deg.HW.Network, sys.HW.Network)
	}
	v, ok := hw.ViewOf(deg.HW.Network.TableDigest)
	if !ok {
		t.Fatal("straggler view not registered")
	}
	if v.Base != sys.HW.Network || !reflect.DeepEqual(v.Survivors, []int{0, 1, 2, 3, 4, 5, 6, 7}) || len(v.Overrides) != 0 {
		t.Errorf("straggler view %+v, want the uniform base, identity survivors and no overrides", v)
	}
	ablation := sys
	ablation.Options.StragglerChip, ablation.Options.StragglerFactor = 3, 0.5
	if deg.Options != ablation.Options {
		t.Fatalf("straggler options %+v, want %+v", deg.Options, ablation.Options)
	}
	if deg == ablation {
		t.Error("the straggler board is the ablation's configuration")
	}
}

// A netlist whose chips line is wider than its wiring registers a view
// over every declared chip, so a fault on the full board perturbs it
// and the degraded board fails where the pristine one does: at
// lowering, on an unwired edge, never on the view's width.
func TestNetlistFaultSpansItsChipsLine(t *testing.T) {
	const board = `chips 6
class mipi 0.5e9 256 100
link 0 1 mipi bidi
link 0 2 mipi bidi
link 0 3 mipi bidi
link 1 2 mipi bidi
link 1 3 mipi bidi
link 2 3 mipi bidi
`
	nl, err := ParseNetlist(strings.NewReader(board))
	if err != nil {
		t.Fatal(err)
	}
	net, err := nl.Network()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := hw.ViewOf(net.TableDigest)
	if !ok || len(v.Survivors) != 6 {
		t.Fatalf("netlist view %+v, want 6 survivors", v)
	}
	wl := core.Workload{Model: model.TinyLlamaScaled64(), Mode: model.Prompt}
	sys := core.DefaultSystem(6)
	sys.HW.Network = net
	if _, err := core.Run(sys, wl); err == nil || !strings.Contains(err.Error(), "is not wired") {
		t.Fatalf("pristine 6-chip board: err %v, want an unwired edge", err)
	}
	deg, _, err := Perturb(sys, DropChip(1))
	if err != nil {
		t.Fatalf("drop:1 on the 6-chip board: %v", err)
	}
	if deg.Chips != 5 {
		t.Fatalf("degraded board has %d chips, want 5", deg.Chips)
	}
	if _, err := core.Run(deg, wl); err == nil || !strings.Contains(err.Error(), "is not wired") {
		t.Fatalf("degraded board: err %v, want an unwired edge", err)
	}
	four := sys
	four.Chips = 4
	if _, err := core.Run(four, wl); err != nil {
		t.Fatalf("the wired 4-chip part of the board: %v", err)
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

// perturbReference is Perturb as it stood before degraded boards became
// views: it materializes the system's wiring into a per-edge table,
// rewrites the table and registers the result. It carries the fixes
// Perturb gained with views — an out-of-range option chip is an error,
// and a dropped straggler is cleared — and is otherwise unchanged. It
// is the oracle the view must agree with.
func perturbReference(sys core.System, faults ...Fault) (core.System, []int, error) {
	n := sys.Chips
	if n < 2 {
		return core.System{}, nil, fmt.Errorf("resilience: cannot perturb a %d-chip system", n)
	}
	if len(faults) == 0 {
		return core.System{}, nil, fmt.Errorf("resilience: no faults to apply")
	}
	if err := sys.CheckOptionChips(); err != nil {
		return core.System{}, nil, fmt.Errorf("resilience: %w", err)
	}
	edges, err := hw.NetworkEdges(sys.HW.Network, n)
	if err != nil {
		return core.System{}, nil, fmt.Errorf("resilience: %w", err)
	}

	dropped := make(map[int]bool)
	straggler := -1
	stragglerFactor := 0.0
	for _, f := range faults {
		switch f.Kind {
		case FaultDropChip:
			if f.Chip < 0 || f.Chip >= n {
				return core.System{}, nil, fmt.Errorf("resilience: drop chip %d out of range for %d chips", f.Chip, n)
			}
			dropped[f.Chip] = true
		case FaultSlowEdge:
			if !(f.Factor >= 1) || math.IsInf(f.Factor, 1) {
				return core.System{}, nil, fmt.Errorf("resilience: slow-edge factor %g must be finite and >= 1", f.Factor)
			}
			fwd, fok := edges[f.Edge]
			rev := hw.Edge{From: f.Edge.To, To: f.Edge.From}
			bwd, bok := edges[rev]
			if !fok && !bok {
				return core.System{}, nil, fmt.Errorf("resilience: edge %d->%d is not wired, nothing to slow", f.Edge.From, f.Edge.To)
			}
			if fok {
				edges[f.Edge] = fwd.Slower(f.Factor)
			}
			if bok {
				edges[rev] = bwd.Slower(f.Factor)
			}
		case FaultStraggle:
			if f.Chip < 0 || f.Chip >= n {
				return core.System{}, nil, fmt.Errorf("resilience: straggle chip %d out of range for %d chips", f.Chip, n)
			}
			if !(f.Factor >= 1) || math.IsInf(f.Factor, 1) {
				return core.System{}, nil, fmt.Errorf("resilience: straggle factor %g must be finite and >= 1", f.Factor)
			}
			if straggler >= 0 && straggler != f.Chip {
				return core.System{}, nil, fmt.Errorf("resilience: the simulator models one straggler chip, got %d and %d", straggler, f.Chip)
			}
			straggler = f.Chip
			stragglerFactor = f.Factor
		default:
			return core.System{}, nil, fmt.Errorf("resilience: unknown fault kind %v", f.Kind)
		}
	}
	if straggler >= 0 && dropped[straggler] {
		return core.System{}, nil, fmt.Errorf("resilience: chip %d is both dropped and straggling", straggler)
	}
	if sys.Options.StragglerFactor > 0 && straggler >= 0 && sys.Options.StragglerChip != straggler {
		return core.System{}, nil, fmt.Errorf("resilience: system already throttles chip %d, cannot also straggle chip %d",
			sys.Options.StragglerChip, straggler)
	}

	remap := make([]int, n)
	next := 0
	for c := 0; c < n; c++ {
		if dropped[c] {
			remap[c] = -1
			continue
		}
		remap[c] = next
		next++
	}
	if next < 2 {
		return core.System{}, nil, fmt.Errorf("resilience: %d of %d chips dropped, fewer than 2 survive", len(dropped), n)
	}

	kept := make(map[hw.Edge]hw.LinkClass, len(edges))
	for e, c := range edges {
		from, to := remap[e.From], remap[e.To]
		if from < 0 || to < 0 {
			continue
		}
		kept[hw.Edge{From: from, To: to}] = c
	}
	if len(kept) == 0 {
		return core.System{}, nil, fmt.Errorf("resilience: no edges survive the faults")
	}
	net, err := hw.TableNetwork(kept, next)
	if err != nil {
		return core.System{}, nil, fmt.Errorf("resilience: %w", err)
	}

	out := sys
	out.Chips = next
	out.HW.Network = net
	if out.Options.DegradedLinkFactor > 0 {
		if nc := remap[out.Options.DegradedLinkChip]; nc >= 0 {
			out.Options.DegradedLinkChip = nc
		} else {
			out.Options.DegradedLinkChip = 0
			out.Options.DegradedLinkFactor = 0
		}
	}
	if out.Options.StragglerFactor > 0 {
		if nc := remap[out.Options.StragglerChip]; nc >= 0 {
			out.Options.StragglerChip = nc
		} else {
			out.Options.StragglerChip = 0
			out.Options.StragglerFactor = 0
		}
	}
	if straggler >= 0 {
		out.Options.StragglerChip = remap[straggler]
		out.Options.StragglerFactor = 1 / stragglerFactor
	}
	return out, remap, nil
}

func mustRun(t *testing.T, sys core.System, wl core.Workload) *core.Report {
	t.Helper()
	rep, err := core.Run(sys, wl)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// oracleBase builds the pristine n-chip board the oracle perturbs:
// uniform MIPI, a clustered board (pairs of chips, 10x-slower
// backhaul), a 2 x ceil(n/2) torus restricted to n chips, or a sparse
// netlist (a daisy chain with a slow repair link from 1 to 3).
func oracleBase(t testing.TB, kind, n int) core.System {
	t.Helper()
	sys := core.DefaultSystem(n)
	switch kind % 4 {
	case 1:
		sys.HW.Network = hw.ClusteredNetwork(hw.MIPI(), hw.MIPI().Slower(10), 2)
	case 2:
		torus, err := hw.TorusNetwork(2, (n+1)/2, hw.MIPI())
		if err != nil {
			t.Fatal(err)
		}
		sys.HW.Network = torus
	case 3:
		spec := "chips 8\nclass mipi 0.5e9 256 100\nclass rework 1e8 512 180\n" +
			"link 0 1 mipi bidi\nlink 1 2 mipi bidi\nlink 2 3 mipi bidi\nlink 3 4 mipi bidi\n" +
			"link 4 5 mipi bidi\nlink 5 6 mipi bidi\nlink 6 7 mipi bidi\nlink 1 3 rework bidi\n"
		nl, err := ParseNetlist(strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		if sys.HW.Network, err = nl.Network(); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// networkName matches the digest-bearing network names that appear in
// error text: a table and a view of one wiring have different digests
// by construction.
var networkName = regexp.MustCompile(`(table|view)-[0-9a-f]{8}`)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return networkName.ReplaceAllString(err.Error(), "<network>")
}

// checkAgainstReference perturbs sys with Perturb and with
// perturbReference and fails unless both agree: the same error text,
// or the same remap, chip count and options, the same materialized
// wiring, and bit-identical reports (or the same error) for one
// workload on the degraded board. It returns both degraded systems,
// ok=false when the faults were rejected.
func checkAgainstReference(t *testing.T, sys, ref core.System, wl core.Workload, faults []Fault) (got, want core.System, ok bool) {
	t.Helper()
	got, gotRemap, gotErr := Perturb(sys, faults...)
	want, wantRemap, wantErr := perturbReference(ref, faults...)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s on %d chips: error %q, reference %q", FaultsString(faults), sys.Chips, errText(gotErr), errText(wantErr))
	}
	if gotErr != nil {
		return got, want, false
	}
	if !reflect.DeepEqual(gotRemap, wantRemap) || got.Chips != want.Chips || got.Options != want.Options {
		t.Fatalf("%s: remap %v, %d chips, options %+v; reference %v, %d chips, %+v",
			FaultsString(faults), gotRemap, got.Chips, got.Options, wantRemap, want.Chips, want.Options)
	}
	if got.HW.Network.Profile != hw.NetView {
		t.Fatalf("%s: degraded network %v is not a view", FaultsString(faults), got.HW.Network)
	}
	gotEdges, err := hw.NetworkEdges(got.HW.Network, got.Chips)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges, err := hw.NetworkEdges(want.HW.Network, want.Chips)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(gotEdges, wantEdges) {
		t.Fatalf("%s: view wires %v, reference table %v", FaultsString(faults), gotEdges, wantEdges)
	}
	gotRep, gotRunErr := core.Run(got, wl)
	wantRep, wantRunErr := core.Run(want, wl)
	if errText(gotRunErr) != errText(wantRunErr) {
		t.Fatalf("%s: run error %q, reference %q", FaultsString(faults), errText(gotRunErr), errText(wantRunErr))
	}
	if gotRunErr == nil {
		gotRep.System = wantRep.System
		if g, w := fmt.Sprintf("%#v", *gotRep), fmt.Sprintf("%#v", *wantRep); g != w {
			t.Fatalf("%s: report on the view\n%s\nreference\n%s", FaultsString(faults), g, w)
		}
	}
	return got, want, true
}

// identityFaults reports whether every fault is a 1x slowdown that
// leaves sys as it was. A 1x straggle replaces the throttle of a system
// that already has one, so it counts only on a system without.
func identityFaults(sys core.System, faults []Fault) bool {
	for _, f := range faults {
		if f.Kind == FaultDropChip || f.Factor != 1 || (f.Kind == FaultStraggle && sys.Options.StragglerFactor > 0) {
			return false
		}
	}
	return true
}

// checkIdentity fails unless a degraded board whose faults are all 1x
// slowdowns prices exactly like the pristine one.
func checkIdentity(t *testing.T, pristine, degraded core.System, wl core.Workload, faults []Fault) {
	t.Helper()
	if !identityFaults(pristine, faults) {
		return
	}
	p, errP := core.Run(pristine, wl)
	d, errD := core.Run(degraded, wl)
	if errText(errP) != errText(errD) {
		t.Fatalf("%s: identity faults changed the run error from %q to %q", FaultsString(faults), errText(errP), errText(errD))
	}
	if errP == nil && (p.Cycles != d.Cycles || p.Energy != d.Energy) {
		t.Fatalf("%s: identity faults moved cycles %g -> %g, energy %+v -> %+v",
			FaultsString(faults), p.Cycles, d.Cycles, p.Energy, d.Energy)
	}
}

// oracleWorkload is the run the oracle prices: a short prompt keeps a
// fuzz iteration cheap while crossing every collective and link.
func oracleWorkload() core.Workload {
	return core.Workload{Model: model.TinyLlama42M(), Mode: model.Prompt, SeqLen: 16}
}

// oracleCase perturbs one pristine board twice — the first fault set on
// the base, the second on the board the first left, each path on its
// own result — and checks every step against the reference. topo%4
// picks the tree, the ring, the fully-connected exchange or the
// pipeline, and topo/4%3 how many of the first board's chips the
// second fault set leaves out (as Degrade leaves idle chips out). A
// non-negative opts gives the pristine board a half-speed straggler on
// chip opts%16-4 and a quarter-rate link on chip opts/16; out of
// range, the system is malformed and both paths must reject it alike.
func oracleCase(t *testing.T, first, second string, chips, base, topo, opts int) {
	n := 2 + chips%7
	sys := oracleBase(t, base, n)
	switch topo % 4 {
	case 1:
		sys.HW.Topology = hw.TopoRing
	case 2:
		sys.HW.Topology = hw.TopoFullyConnected
	case 3:
		sys.Strategy = partition.Pipeline
	}
	if opts >= 0 {
		sys.Options.StragglerChip, sys.Options.StragglerFactor = opts%16-4, 0.5
		sys.Options.DegradedLinkChip, sys.Options.DegradedLinkFactor = opts/16, 0.25
	}
	wl := oracleWorkload()
	f1, err := ParseFaults(first)
	if err != nil {
		return
	}
	got, want, ok := checkAgainstReference(t, sys, sys, wl, f1)
	if !ok {
		return
	}
	checkIdentity(t, sys, got, wl, f1)
	f2, err := ParseFaults(second)
	if err != nil {
		return
	}
	shrink := topo / 4 % 3
	got.Chips = max(2, got.Chips-shrink)
	want.Chips = got.Chips
	got2, _, ok := checkAgainstReference(t, got, want, wl, f2)
	if ok {
		checkIdentity(t, got, got2, wl, f2)
	}
}

// The view oracle on hand-picked cases: every fault kind on every base
// kind, a second fault on an already-degraded board, faults the
// reference rejects, and identity faults.
func TestPerturbMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		first, second string
		chips, opts   int
	}{
		{"drop:3", "", 6, -1},
		{"slow:0-1x10", "", 6, -1},
		{"straggle:3x2", "", 6, -1},
		{"drop:3, slow:0-1x10, straggle:2x2", "drop:0", 6, -1},
		{"drop:1", "slow:1-2x4", 6, -1},
		{"drop:1", "drop:4", 6, -1},
		{"slow:0-1x10", "slow:0-1x10,drop:5", 6, -1},
		{"drop:2", "straggle:1x3", 5, 5},
		{"straggle:3x2", "drop:3", 6, -1},
		{"slow:0-1x1", "straggle:2x1", 6, -1},
		{"straggle:0x1", "slow:1-0x1", 6, 4},
		{"drop:4", "drop:1", 6, 8 + 16*3},
		{"drop:3", "drop:0", 6, 4 + 16*3},
		{"drop:0,drop:1", "drop:0", 1, -1},
		{"drop:1", "", 1, -1},
		{"drop:2,straggle:2x2", "", 6, -1},
		{"straggle:1x2,straggle:2x2", "", 6, -1},
		{"straggle:1x2", "", 6, 7},
		{"straggle:9x2", "", 6, -1},
		{"straggle:1x0.5", "", 6, -1},
		{"slow:0-1x0.5", "", 6, -1},
		{"drop:1", "", 6, 14},
		{"drop:1", "", 6, 4 + 16*9},
		{"drop:1", "drop:0", 2, -1},
		{"slow:0-1x1e308,slow:0-1x1e308", "", 6, -1},
		{"slow:1-3x2", "slow:2-1x3", 4, -1},
		{"drop:5", "", 0, -1},
		{"slow:0-7x3", "", 6, -1},
	} {
		for base := range 4 {
			for topo := range 12 {
				t.Run(fmt.Sprintf("%s|%s/base%d/topo%d", tc.first, tc.second, base, topo), func(t *testing.T) {
					oracleCase(t, tc.first, tc.second, tc.chips, base, topo, tc.opts)
				})
			}
		}
	}
}

// FuzzPerturb holds the view-building Perturb to perturbReference on
// arbitrary fault specs, applied to 2-8 chips of every base kind and,
// when the first spec is accepted, again to the board it degraded. The
// seed corpus is FuzzParseFaults' corpus, each spec paired with the
// CI fault specs as a second fault.
func FuzzPerturb(f *testing.F) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseFaults")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var specs []string
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				spec, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					f.Fatalf("%s: %v", e.Name(), err)
				}
				specs = append(specs, spec)
			}
		}
	}
	for i, spec := range specs {
		for _, second := range []string{"drop:3", "slow:0-1x10", "straggle:1x2"} {
			f.Add(spec, second, uint8(i), uint8(i/2), uint8(i/3), int8(-1))
		}
	}
	f.Add("drop:1,slow:2-3x4", "drop:0", uint8(6), uint8(3), uint8(3), int8(9))
	f.Fuzz(func(t *testing.T, first, second string, chips, base, topo uint8, opts int8) {
		oracleCase(t, first, second, int(chips), int(base), int(topo), int(opts))
	})
}
