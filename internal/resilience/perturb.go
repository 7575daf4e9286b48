package resilience

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mcudist/internal/core"
	"mcudist/internal/hw"
)

// FaultKind selects one deterministic perturbation.
type FaultKind int

const (
	// FaultDropChip removes a chip: every edge touching it disappears
	// and the survivors renumber consecutively (the partitioner and
	// the schedules address chips 0..n-1).
	FaultDropChip FaultKind = iota
	// FaultSlowEdge divides one edge's bandwidth (both directions when
	// both are wired) by Factor in the network table itself, so the
	// degradation rides in the network digest like any measured wiring.
	FaultSlowEdge
	// FaultStraggle throttles one chip's compute throughput by Factor
	// via the deployment straggler options (the perfsim hook the
	// thermal-throttling ablation uses).
	FaultStraggle
)

func (k FaultKind) String() string {
	switch k {
	case FaultDropChip:
		return "drop"
	case FaultSlowEdge:
		return "slow"
	case FaultStraggle:
		return "straggle"
	default:
		return fmt.Sprintf("fault-kind(%d)", int(k))
	}
}

// Fault is one deterministic perturbation of a system: which chip or
// edge it hits and how hard. Construct with DropChip, SlowEdge, or
// StraggleChip.
type Fault struct {
	Kind FaultKind
	// Chip is the dropped or straggling chip (FaultDropChip,
	// FaultStraggle).
	Chip int
	// Edge is the slowed edge (FaultSlowEdge).
	Edge hw.Edge
	// Factor is the finite slowdown multiple, >= 1: a FaultSlowEdge
	// divides the edge bandwidth by it, a FaultStraggle divides the
	// chip's compute throughput by it.
	Factor float64
}

// DropChip fails chip i outright.
func DropChip(i int) Fault { return Fault{Kind: FaultDropChip, Chip: i} }

// SlowEdge degrades the edge from->to (and the reverse direction,
// when wired) to 1/factor of its bandwidth.
func SlowEdge(from, to int, factor float64) Fault {
	return Fault{Kind: FaultSlowEdge, Edge: hw.Edge{From: from, To: to}, Factor: factor}
}

// StraggleChip throttles chip i's compute to 1/factor of its speed.
func StraggleChip(i int, factor float64) Fault {
	return Fault{Kind: FaultStraggle, Chip: i, Factor: factor}
}

// String renders the fault in the ParseFaults spelling.
func (f Fault) String() string {
	switch f.Kind {
	case FaultDropChip:
		return fmt.Sprintf("drop:%d", f.Chip)
	case FaultSlowEdge:
		return fmt.Sprintf("slow:%d-%dx%g", f.Edge.From, f.Edge.To, f.Factor)
	case FaultStraggle:
		return fmt.Sprintf("straggle:%dx%g", f.Chip, f.Factor)
	default:
		return f.Kind.String()
	}
}

// ParseFaults parses a comma-separated fault spec — the CLI spelling:
//
//	drop:3                 fail chip 3
//	slow:0-1x10            slow edge 0<->1 to 1/10 bandwidth
//	straggle:3x2           throttle chip 3's compute to half speed
func ParseFaults(spec string) ([]Fault, error) {
	var faults []Fault
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, arg, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("resilience: fault %q: want kind:args", part)
		}
		switch kind {
		case "drop":
			chip, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("resilience: fault %q: bad chip id %q", part, arg)
			}
			faults = append(faults, DropChip(chip))
		case "slow":
			edgePart, factorPart, ok := strings.Cut(arg, "x")
			if !ok {
				return nil, fmt.Errorf("resilience: fault %q: want slow:<from>-<to>x<factor>", part)
			}
			fromPart, toPart, ok := strings.Cut(edgePart, "-")
			if !ok {
				return nil, fmt.Errorf("resilience: fault %q: want slow:<from>-<to>x<factor>", part)
			}
			from, err1 := strconv.Atoi(fromPart)
			to, err2 := strconv.Atoi(toPart)
			factor, err3 := strconv.ParseFloat(factorPart, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("resilience: fault %q: want slow:<from>-<to>x<factor>", part)
			}
			faults = append(faults, SlowEdge(from, to, factor))
		case "straggle":
			chipPart, factorPart, ok := strings.Cut(arg, "x")
			if !ok {
				return nil, fmt.Errorf("resilience: fault %q: want straggle:<chip>x<factor>", part)
			}
			chip, err1 := strconv.Atoi(chipPart)
			factor, err2 := strconv.ParseFloat(factorPart, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("resilience: fault %q: want straggle:<chip>x<factor>", part)
			}
			faults = append(faults, StraggleChip(chip, factor))
		default:
			return nil, fmt.Errorf("resilience: fault %q: unknown kind %q (want drop | slow | straggle)", part, kind)
		}
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("resilience: empty fault spec")
	}
	return faults, nil
}

// FaultsString renders a fault list in the ParseFaults spelling.
func FaultsString(faults []Fault) string {
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Perturb applies the faults to a system deterministically and
// returns the degraded system plus the chip remap: remap[old] is the
// survivor's new id, or -1 for a dropped chip.
//
// The degraded network is a view over the system's network (see
// hw.View): the surviving chips, renumbered consecutively in their old
// order, and the slowed edges, whose bandwidth is divided in an
// override of the view. A system whose network is already a view
// composes onto the same base, so faults accumulate without a view
// ever nesting. Every fault set gets a view of its own, registered
// under a content digest no base network shares — even a straggler,
// which leaves the wiring as it was — so the cache tiers never confuse
// degraded results with pristine ones. Stragglers ride in the
// deployment options (which the evalpool cache key also covers). Every
// schedule the degraded system lowers re-validates against the degraded
// wiring; pipeline chains re-route through surviving stage paths.
func Perturb(sys core.System, faults ...Fault) (core.System, []int, error) {
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
	cur, err := hw.ViewOver(sys.HW.Network, n)
	if err != nil {
		return core.System{}, nil, fmt.Errorf("resilience: %w", err)
	}

	dropped := make([]bool, n)
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
			fwd := cur.Slow(f.Edge, f.Factor)
			bwd := cur.Slow(hw.Edge{From: f.Edge.To, To: f.Edge.From}, f.Factor)
			if !fwd && !bwd {
				return core.System{}, nil, fmt.Errorf("resilience: edge %d->%d is not wired, nothing to slow", f.Edge.From, f.Edge.To)
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

	// Renumber survivors consecutively, preserving order; the overrides
	// follow their chips, and those of dropped chips go with them.
	remap := make([]int, n)
	next := hw.View{Base: cur.Base}
	for c := range n {
		if dropped[c] {
			remap[c] = -1
			continue
		}
		remap[c] = len(next.Survivors)
		next.Survivors = append(next.Survivors, cur.Survivors[c])
	}
	if len(next.Survivors) < 2 {
		return core.System{}, nil, fmt.Errorf("resilience: %d of %d chips dropped, fewer than 2 survive", n-len(next.Survivors), n)
	}
	for _, o := range cur.Overrides {
		if from, to := remap[o.From], remap[o.To]; from >= 0 && to >= 0 {
			next.Overrides = append(next.Overrides, hw.EdgeClass{Edge: hw.Edge{From: from, To: to}, Class: o.Class})
		}
	}
	if !next.Wires() {
		return core.System{}, nil, fmt.Errorf("resilience: no edges survive the faults")
	}
	net, err := hw.ViewNetwork(next)
	if err != nil {
		return core.System{}, nil, fmt.Errorf("resilience: %w", err)
	}

	out := sys
	out.Chips = len(next.Survivors)
	out.HW.Network = net
	// Remap a pre-existing degradation target or straggler; clear it if
	// its chip dropped (its links and its compute are gone with it).
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
		// Options.StragglerFactor scales throughput (0.5 = half
		// speed); the fault spells slowdown (2 = half speed).
		out.Options.StragglerFactor = 1 / stragglerFactor
	}
	return out, remap, nil
}
