package hw

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	// NetTable resolves edges from an explicit per-edge table
	// registered with TableNetwork — the shape for measured board
	// wirings. Edges absent from the table are undefined and reject
	// any schedule that routes over them.
	NetTable

	networkProfileCount // sentinel for validation
)

func (p NetworkProfile) String() string {
	switch p {
	case NetUniform:
		return "uniform"
	case NetClustered:
		return "clustered"
	case NetTable:
		return "table"
	default:
		return fmt.Sprintf("network-profile(%d)", int(p))
	}
}

// Valid reports whether p names a supported profile.
func (p NetworkProfile) Valid() bool { return p >= 0 && p < networkProfileCount }

// ParseNetworkProfile maps a command-line spelling to a profile.
// Accepted names: uniform | mipi, clustered | two-tier, table.
func ParseNetworkProfile(s string) (NetworkProfile, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform", "mipi", "flat":
		return NetUniform, nil
	case "clustered", "two-tier", "backhaul":
		return NetClustered, nil
	case "table", "per-edge", "netlist":
		return NetTable, nil
	default:
		return 0, fmt.Errorf("hw: unknown network profile %q (want uniform | clustered | table)", s)
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
// the full hw.Params — so the explicit per-edge table is carried by a
// canonical content digest into a process-wide registry rather than by
// a map field: two networks built from equal tables compare equal and
// share one cache entry.
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
	// TableDigest identifies a registered per-edge table (NetTable
	// only): the canonical content digest returned by TableNetwork.
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

// tableRegistry interns explicit per-edge tables by canonical digest,
// keeping Network a comparable value while supporting arbitrary
// measured wirings.
var (
	tableMu  sync.RWMutex
	tableReg = map[string]map[Edge]LinkClass{}
)

// TableNetwork registers an explicit per-edge link table and returns
// the Network referencing it. The table is keyed by a canonical
// digest of its exact contents (edges sorted, float bit patterns), so
// registering an equal table twice yields equal Network values — the
// property the evalpool cache key depends on. Every class in the
// table must validate; edges not present are undefined and reject
// schedules that route over them.
func TableNetwork(edges map[Edge]LinkClass) (Network, error) {
	digest, err := DigestTable(edges)
	if err != nil {
		return Network{}, err
	}
	cp := make(map[Edge]LinkClass, len(edges))
	for e, c := range edges {
		cp[e] = c
	}
	tableMu.Lock()
	tableReg[digest] = cp
	tableMu.Unlock()
	return Network{Profile: NetTable, TableDigest: digest}, nil
}

// DigestTable validates an explicit per-edge link table and returns
// the canonical content digest TableNetwork registers it under,
// without registering it.
func DigestTable(edges map[Edge]LinkClass) (string, error) {
	if len(edges) == 0 {
		return "", fmt.Errorf("hw: per-edge table must define at least one edge")
	}
	keys := make([]Edge, 0, len(edges))
	for e, c := range edges {
		if e.From < 0 || e.To < 0 || e.From == e.To {
			return "", fmt.Errorf("hw: bad table edge %d->%d", e.From, e.To)
		}
		if err := c.Validate(); err != nil {
			return "", fmt.Errorf("hw: table edge %d->%d: %w", e.From, e.To, err)
		}
		keys = append(keys, e)
	}
	slices.SortFunc(keys, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	h := sha256.New()
	for _, e := range keys {
		h.Write(appendEdgeDigest(make([]byte, 0, 128), e, edges[e]))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
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
	b = appendHex16(b, math.Float64bits(c.BandwidthBytesPerSec))
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(c.SetupCycles), 10)
	b = append(b, ':')
	b = appendHex16(b, math.Float64bits(c.EnergyPJPerByte))
	return append(b, ';')
}

// appendHex16 appends v as 16 lowercase hex digits, zero-padded.
func appendHex16(b []byte, v uint64) []byte {
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	return hex.AppendEncode(b, be[:])
}

// lookupTable returns the registered table, or nil.
func lookupTable(digest string) map[Edge]LinkClass {
	tableMu.RLock()
	defer tableMu.RUnlock()
	return tableReg[digest]
}

// TableEdges returns a copy of the per-edge table registered under
// digest, or ok=false if no table with that digest is registered in
// this process. The persistent result store uses it to write table
// wirings next to the reports that reference them, so a cold process
// can re-register the table (through TableNetwork, which reproduces
// the same content digest) before serving cached table-backed runs.
func TableEdges(digest string) (map[Edge]LinkClass, bool) {
	table := lookupTable(digest)
	if table == nil {
		return nil, false
	}
	cp := make(map[Edge]LinkClass, len(table))
	for e, c := range table {
		cp[e] = c
	}
	return cp, true
}

// LinkFor resolves the class of the directed edge from->to. An edge a
// network does not define — a table edge that was never registered, or
// an unwired chip pair — returns an error; schedule lowering surfaces
// it before any simulation runs.
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
	case NetTable:
		table := lookupTable(n.TableDigest)
		if table == nil {
			return LinkClass{}, fmt.Errorf("hw: per-edge table %q is not registered (build the network with TableNetwork)", n.TableDigest)
		}
		c, ok := table[Edge{From: from, To: to}]
		if !ok {
			return LinkClass{}, fmt.Errorf("hw: edge %d->%d is not wired in the per-edge table", from, to)
		}
		return c, nil
	default:
		return LinkClass{}, fmt.Errorf("hw: %s is not a supported network profile", n.Profile)
	}
}

// String names the network for sweep labels and reports: "uniform",
// "clustered-4x10" (cluster size 4, backhaul 10x slower), or
// "table-<digest prefix>".
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
	case NetTable:
		d := n.TableDigest
		if len(d) > 8 {
			d = d[:8]
		}
		return "table-" + d
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
	case NetTable:
		if lookupTable(n.TableDigest) == nil {
			return fmt.Errorf("hw: per-edge table %q is not registered (build the network with TableNetwork)", n.TableDigest)
		}
		return nil
	default:
		return fmt.Errorf("hw: %s is not a supported network profile", n.Profile)
	}
}
