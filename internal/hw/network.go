package hw

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// LinkClass describes one class of chip-to-chip serial interface: a
// (bandwidth, setup, energy) triple. Real multi-MCU boards mix link
// classes — MIPI between neighbouring chips, a slower SPI or shared
// backhaul between clusters — so the network description assigns a
// LinkClass to each directed edge instead of assuming one global link.
// LinkClass is a comparable value type: it participates in the
// evalpool cache key through Network.
type LinkClass struct {
	// BandwidthBytesPerSec is the usable payload bandwidth.
	BandwidthBytesPerSec float64
	// SetupCycles is the fixed per-transfer cost (packetization,
	// handshake) expressed in cluster cycles.
	SetupCycles int
	// EnergyPJPerByte is the transfer energy per payload byte.
	EnergyPJPerByte float64
}

// MIPI returns the paper's chip-to-chip link class: 0.5 GB/s, 256
// setup cycles, 100 pJ/B.
func MIPI() LinkClass {
	return LinkClass{BandwidthBytesPerSec: 0.5e9, SetupCycles: 256, EnergyPJPerByte: 100}
}

// Defined reports whether the class describes a usable link. The zero
// LinkClass is the "no edge here" marker: resolving it is how a
// schedule hop over an unwired chip pair is rejected.
func (c LinkClass) Defined() bool { return c.BandwidthBytesPerSec > 0 }

// BytesPerCycle is the class bandwidth expressed in payload bytes per
// cluster cycle at the given cluster frequency (the unit used by the
// event simulator).
func (c LinkClass) BytesPerCycle(freqHz float64) float64 {
	return c.BandwidthBytesPerSec / freqHz
}

// TransferCycles is the time one transfer of the given payload
// occupies a link of this class, in cluster cycles: payload/bandwidth
// plus the per-transfer setup.
func (c LinkClass) TransferCycles(freqHz float64, payloadBytes int64) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(payloadBytes)/c.BytesPerCycle(freqHz) + float64(c.SetupCycles)
}

// Slower returns the class with bandwidth divided by factor — the
// spelling of "a 10x-slower backhaul" used by the clustered-network
// constructors and the -backhaul CLI flags.
func (c LinkClass) Slower(factor float64) LinkClass {
	c.BandwidthBytesPerSec /= factor
	return c
}

// Validate reports the first structural problem with the class.
func (c LinkClass) Validate() error {
	if !(c.BandwidthBytesPerSec > 0) || math.IsInf(c.BandwidthBytesPerSec, 1) {
		return fmt.Errorf("hw: link bandwidth must be positive and finite, got %g", c.BandwidthBytesPerSec)
	}
	if math.IsNaN(c.EnergyPJPerByte) || math.IsInf(c.EnergyPJPerByte, 0) {
		return fmt.Errorf("hw: link energy must be finite, got %g pJ/B", c.EnergyPJPerByte)
	}
	if c.SetupCycles < 0 || c.EnergyPJPerByte < 0 {
		return fmt.Errorf("hw: link costs must be non-negative")
	}
	return nil
}

// NetworkProfile selects how a Network assigns link classes to edges.
type NetworkProfile int

const (
	// NetUniform assigns one class (Network.Local) to every edge —
	// the paper's all-MIPI assumption and the zero value, so every
	// configuration that predates the per-edge link model keeps
	// reproducing the paper's numbers unchanged.
	NetUniform NetworkProfile = iota
	// NetClustered is the two-tier board: chips are grouped into
	// consecutive clusters of Network.ClusterSize; edges inside a
	// cluster use Network.Local, edges between clusters use
	// Network.Backhaul (typically much slower).
	NetClustered
	// NetView resolves edges through a view registered with
	// ViewNetwork: surviving chips and re-priced edges over a
	// closed-form base network, or over the zero Network, whose
	// overrides are then the whole wiring (see View). A degraded board
	// and a measured wiring (TableNetwork) are both views.
	NetView

	networkProfileCount // sentinel for validation
)

func (p NetworkProfile) String() string {
	switch p {
	case NetUniform:
		return "uniform"
	case NetClustered:
		return "clustered"
	case NetView:
		return "view"
	default:
		return fmt.Sprintf("network-profile(%d)", int(p))
	}
}

// Valid reports whether p names a supported profile.
func (p NetworkProfile) Valid() bool { return p >= 0 && p < networkProfileCount }

// ParseNetworkProfile maps a command-line spelling to a profile.
// Accepted names: uniform | mipi, clustered | two-tier, view; table,
// per-edge and netlist also name the view profile, the one a measured
// wiring registers as.
func ParseNetworkProfile(s string) (NetworkProfile, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "mipi", "flat":
		return NetUniform, nil
	case "clustered", "two-tier", "backhaul":
		return NetClustered, nil
	case "view", "table", "per-edge", "netlist":
		return NetView, nil
	default:
		return 0, fmt.Errorf("hw: unknown network profile %q (want uniform | clustered | table | view)", s)
	}
}

// MarshalText emits the canonical spelling, so JSON/CSV sinks print
// "clustered" instead of a bare int.
func (p NetworkProfile) MarshalText() ([]byte, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("hw: cannot marshal invalid network profile %d", int(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText parses any spelling ParseNetworkProfile accepts.
func (p *NetworkProfile) UnmarshalText(text []byte) error {
	v, err := ParseNetworkProfile(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Edge is one directed chip pair of a per-edge link table.
type Edge struct {
	From, To int
}

// Network assigns a LinkClass to every directed chip-to-chip edge.
// It is a comparable value type — the evalpool report cache keys on
// the full hw.Params — so a view (a measured wiring or a degraded
// board) is carried by a canonical content digest into a process-wide
// registry rather than by a map field: two networks built from equal
// views compare equal and share one cache entry. The zero Network
// wires nothing; it serves only as the base of a view that lists
// every edge it wires.
type Network struct {
	Profile NetworkProfile
	// Local is the uniform class (NetUniform) or the intra-cluster
	// class (NetClustered).
	Local LinkClass
	// Backhaul is the inter-cluster class (NetClustered only).
	Backhaul LinkClass
	// ClusterSize is the number of consecutive chips per cluster
	// (NetClustered only).
	ClusterSize int
	// TableDigest identifies a registered view (NetView): the
	// canonical content digest ViewNetwork (or TableNetwork, which
	// registers a wiring as a view) returned.
	TableDigest string
}

// UniformNetwork assigns one class to every edge — today's default
// wiring, byte-identical to the pre-refactor single hw.Link.
func UniformNetwork(c LinkClass) Network {
	return Network{Profile: NetUniform, Local: c}
}

// ClusteredNetwork builds the two-tier board: consecutive clusters of
// clusterSize chips wired with local internally and backhaul between
// clusters.
func ClusteredNetwork(local, backhaul LinkClass, clusterSize int) Network {
	return Network{Profile: NetClustered, Local: local, Backhaul: backhaul, ClusterSize: clusterSize}
}

// TableNetwork registers an explicit per-edge link table — a measured
// board wiring — over chips 0..n-1, which may include chips the table
// leaves unwired, and returns the Network referencing it. The table is
// registered as a view over the zero Network, which wires nothing: its
// survivors are chips 0..n-1, and its overrides are every edge in
// (from, to) order. Equal tables over equal chip counts therefore yield
// equal Network values — the property the evalpool cache key depends
// on. Every class in the table must validate and every edge must lie
// below chip n; edges not present are undefined and reject schedules
// that route over them.
func TableNetwork(edges map[Edge]LinkClass, n int) (Network, error) {
	if len(edges) == 0 {
		return Network{}, fmt.Errorf("hw: per-edge table must define at least one edge")
	}
	v := View{Overrides: make([]EdgeClass, 0, len(edges))}
	for e, c := range edges {
		v.Overrides = append(v.Overrides, EdgeClass{Edge: e, Class: c})
	}
	slices.SortFunc(v.Overrides, func(a, b EdgeClass) int { return compareEdges(a.Edge, b.Edge) })
	v.Survivors = make([]int, n)
	for i := range v.Survivors {
		v.Survivors[i] = i
	}
	return ViewNetwork(v)
}

// checkEdge reports the first problem with one wired edge of a view.
// Views check edges in (from, to) order, so the error names the first
// bad edge of that order.
func checkEdge(e Edge, c LinkClass) error {
	if e.From < 0 || e.To < 0 || e.From == e.To {
		return fmt.Errorf("hw: bad edge %d->%d", e.From, e.To)
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("hw: edge %d->%d: %w", e.From, e.To, err)
	}
	return nil
}

// unwired is the error for an edge a view does not wire.
func unwired(from, to int) error {
	return fmt.Errorf("hw: edge %d->%d is not wired", from, to)
}

// appendEdgeDigest appends one edge's digest record,
// "from>to:bandwidth bits:setup:energy bits;", with both ids and the
// setup in decimal and both float bit patterns as 16 lowercase hex
// digits.
func appendEdgeDigest(b []byte, e Edge, c LinkClass) []byte {
	b = strconv.AppendInt(b, int64(e.From), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(e.To), 10)
	b = append(b, ':')
	b = appendClassDigest(b, c)
	return append(b, ';')
}

// appendHex16 appends v as 16 lowercase hex digits, zero-padded.
func appendHex16(b []byte, v uint64) []byte {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	return hex.AppendEncode(b, be[:])
}

// LinkFor resolves the class of the directed edge from->to. An edge a
// network does not define — a view that was never registered, or an
// unwired chip pair — returns an error; schedule lowering surfaces it
// before any simulation runs.
func (n Network) LinkFor(from, to int) (LinkClass, error) {
	if from == to {
		return LinkClass{}, fmt.Errorf("hw: self-edge %d->%d has no link", from, to)
	}
	switch n.Profile {
	case NetUniform:
		return n.Local, nil
	case NetClustered:
		if n.ClusterSize <= 0 {
			return LinkClass{}, fmt.Errorf("hw: clustered network needs a positive cluster size, got %d", n.ClusterSize)
		}
		if from/n.ClusterSize == to/n.ClusterSize {
			return n.Local, nil
		}
		return n.Backhaul, nil
	case NetView:
		v := lookupView(n.TableDigest)
		if v == nil {
			return LinkClass{}, unregisteredView(n.TableDigest)
		}
		c, ok := v.link(from, to)
		if !ok {
			return LinkClass{}, unwired(from, to)
		}
		return c, nil
	default:
		return LinkClass{}, fmt.Errorf("hw: %s is not a supported network profile", n.Profile)
	}
}

// String names the network for sweep labels and reports: "uniform",
// "clustered-4x10" (cluster size 4, backhaul 10x slower) or
// "view-<digest prefix>".
func (n Network) String() string {
	switch n.Profile {
	case NetUniform:
		return "uniform"
	case NetClustered:
		slow := "?"
		if n.Backhaul.BandwidthBytesPerSec > 0 {
			slow = fmt.Sprintf("%g", n.Local.BandwidthBytesPerSec/n.Backhaul.BandwidthBytesPerSec)
		}
		return fmt.Sprintf("clustered-%dx%s", n.ClusterSize, slow)
	case NetView:
		d := n.TableDigest
		if len(d) > 8 {
			d = d[:8]
		}
		return n.Profile.String() + "-" + d
	default:
		return n.Profile.String()
	}
}

// Validate reports the first structural problem with the network.
func (n Network) Validate() error {
	switch n.Profile {
	case NetUniform:
		return n.Local.Validate()
	case NetClustered:
		if err := n.Local.Validate(); err != nil {
			return fmt.Errorf("hw: clustered local class: %w", err)
		}
		if err := n.Backhaul.Validate(); err != nil {
			return fmt.Errorf("hw: clustered backhaul class: %w", err)
		}
		if n.ClusterSize <= 0 {
			return fmt.Errorf("hw: clustered network needs a positive cluster size, got %d", n.ClusterSize)
		}
		return nil
	case NetView:
		if lookupView(n.TableDigest) == nil {
			return unregisteredView(n.TableDigest)
		}
		return nil
	default:
		return fmt.Errorf("hw: %s is not a supported network profile", n.Profile)
	}
}

func unregisteredView(digest string) error {
	return fmt.Errorf("hw: view %q is not registered (build the network with ViewNetwork)", digest)
}
