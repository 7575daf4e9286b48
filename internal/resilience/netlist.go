// Package resilience is the robustness tier: it imports measured
// board wirings (netlists) into the per-edge network model, injects
// deterministic faults — a dropped chip, a slowed edge, a compute
// straggler — by degrading the board as a view over its network
// (hw.View: the surviving chips and the re-priced edges) and rewriting
// the planner options, and measures the re-planning margin: how much
// latency/energy a fleet serving a stale pre-tuned plan loses on the
// degraded board before re-running the autotuner pays.
//
// Everything in the package is a pure rewrite of value-typed
// configuration: a perturbed system carries a different interned
// network view (a different content digest) and different planner
// options, so the evalpool/resultstore cache tiers can never confuse
// degraded results with pristine ones — the digests differ by
// construction.
package resilience

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mcudist/internal/hw"
)

// Netlist is a measured per-edge board wiring: a chip count, named
// link classes (bandwidth/setup/energy triples), and the directed
// edges wired between chips. It is the file-format view of
// hw.TableNetwork: ParseNetlist reads it, Network registers it with
// the interned table machinery.
type Netlist struct {
	// Chips is the number of chips the wiring spans (chip ids are
	// 0..Chips-1).
	Chips int
	// Classes names the link classes edges refer to.
	Classes map[string]hw.LinkClass
	// Edges assigns each wired directed edge its class name.
	Edges map[hw.Edge]string
}

// maxClassName bounds a class name, so every line naming a class stays
// far below the scanner's line limit.
const maxClassName = 256

// ParseNetlist reads the netlist file format:
//
//	# comments and blank lines are ignored
//	chips 8
//	class mipi 0.5e9 256 100      # name, bandwidth B/s, setup cycles, pJ/B
//	link 0 1 mipi bidi            # from, to, class; bidi wires both directions
//	link 2 0 mipi                 # directed edge
//
// Every malformed input — a missing or duplicate chips line, an
// unknown directive, an undeclared or redeclared class, a class name
// longer than maxClassName bytes, a chip index out of range, a
// self-edge, a duplicate edge, a non-positive bandwidth, a line of 64
// KiB or more — is rejected with the offending line number.
func ParseNetlist(r io.Reader) (*Netlist, error) {
	nl := &Netlist{
		Classes: map[string]hw.LinkClass{},
		Edges:   map[hw.Edge]string{},
	}
	sawChips := false
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "chips":
			if sawChips {
				return nil, fmt.Errorf("netlist line %d: duplicate chips directive", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist line %d: want `chips <n>`", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 2 {
				return nil, fmt.Errorf("netlist line %d: chip count %q must be an integer >= 2", line, fields[1])
			}
			nl.Chips = n
			sawChips = true
		case "class":
			if len(fields) != 5 {
				return nil, fmt.Errorf("netlist line %d: want `class <name> <bandwidth B/s> <setup cycles> <pJ/B>`", line)
			}
			name := fields[1]
			if len(name) > maxClassName {
				return nil, fmt.Errorf("netlist line %d: class name of %d bytes is longer than %d", line, len(name), maxClassName)
			}
			if _, dup := nl.Classes[name]; dup {
				return nil, fmt.Errorf("netlist line %d: class %q already declared", line, name)
			}
			bw, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("netlist line %d: bad bandwidth %q", line, fields[2])
			}
			setup, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("netlist line %d: bad setup cycles %q", line, fields[3])
			}
			pj, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, fmt.Errorf("netlist line %d: bad energy %q", line, fields[4])
			}
			c := hw.LinkClass{BandwidthBytesPerSec: bw, SetupCycles: setup, EnergyPJPerByte: pj}
			if err := c.Validate(); err != nil {
				return nil, fmt.Errorf("netlist line %d: class %q: %w", line, name, err)
			}
			nl.Classes[name] = c
		case "link":
			if !sawChips {
				return nil, fmt.Errorf("netlist line %d: link before the chips directive", line)
			}
			if len(fields) != 4 && !(len(fields) == 5 && fields[4] == "bidi") {
				return nil, fmt.Errorf("netlist line %d: want `link <from> <to> <class> [bidi]`", line)
			}
			from, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("netlist line %d: bad chip id %q", line, fields[1])
			}
			to, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("netlist line %d: bad chip id %q", line, fields[2])
			}
			if from < 0 || from >= nl.Chips || to < 0 || to >= nl.Chips {
				return nil, fmt.Errorf("netlist line %d: link %d->%d out of range for %d chips", line, from, to, nl.Chips)
			}
			if from == to {
				return nil, fmt.Errorf("netlist line %d: self-edge %d->%d", line, from, to)
			}
			name := fields[3]
			if _, ok := nl.Classes[name]; !ok {
				return nil, fmt.Errorf("netlist line %d: class %q not declared", line, name)
			}
			dirs := []hw.Edge{{From: from, To: to}}
			if len(fields) == 5 {
				dirs = append(dirs, hw.Edge{From: to, To: from})
			}
			for _, e := range dirs {
				if _, dup := nl.Edges[e]; dup {
					return nil, fmt.Errorf("netlist line %d: edge %d->%d already wired", line, e.From, e.To)
				}
				nl.Edges[e] = name
			}
		default:
			return nil, fmt.Errorf("netlist line %d: unknown directive %q (want chips | class | link)", line, fields[0])
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("netlist line %d: longer than %d bytes", line+1, bufio.MaxScanTokenSize-1)
	} else if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	if !sawChips {
		return nil, fmt.Errorf("netlist: missing chips directive")
	}
	if len(nl.Edges) == 0 {
		return nil, fmt.Errorf("netlist: no links wired")
	}
	return nl, nil
}

// LoadNetlist parses a netlist file from disk.
func LoadNetlist(path string) (*Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	defer f.Close()
	nl, err := ParseNetlist(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return nl, nil
}

// EdgeTable resolves the netlist into the explicit per-edge class
// table — the map TableNetwork registers.
func (nl *Netlist) EdgeTable() map[hw.Edge]hw.LinkClass {
	edges := make(map[hw.Edge]hw.LinkClass, len(nl.Edges))
	for e, name := range nl.Edges {
		edges[e] = nl.Classes[name]
	}
	return edges
}

// Network registers the wiring as an interned per-edge table network.
// Equal netlists (same resolved edges, whatever the class names)
// produce equal Network values — the content digest ignores naming.
func (nl *Netlist) Network() (hw.Network, error) {
	return hw.TableNetwork(nl.EdgeTable())
}
