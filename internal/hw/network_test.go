package hw

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestUniformNetworkResolvesEveryEdge(t *testing.T) {
	n := UniformNetwork(MIPI())
	for _, e := range []Edge{{0, 1}, {1, 0}, {5, 63}} {
		c, err := n.LinkFor(e.From, e.To)
		if err != nil {
			t.Fatalf("LinkFor(%d,%d): %v", e.From, e.To, err)
		}
		if c != MIPI() {
			t.Errorf("LinkFor(%d,%d) = %+v, want MIPI", e.From, e.To, c)
		}
	}
	if _, err := n.LinkFor(3, 3); err == nil {
		t.Error("self-edge resolved to a link")
	}
}

func TestClusteredNetworkSplitsLocalAndBackhaul(t *testing.T) {
	local := MIPI()
	back := MIPI().Slower(10)
	n := ClusteredNetwork(local, back, 4)
	cases := []struct {
		from, to int
		want     LinkClass
	}{
		{0, 1, local}, // same cluster [0..3]
		{2, 3, local}, // same cluster
		{3, 4, back},  // cluster boundary
		{0, 63, back}, // far apart
		{4, 7, local}, // cluster [4..7]
		{60, 63, local} /* cluster [60..63] */}
	for _, c := range cases {
		got, err := n.LinkFor(c.from, c.to)
		if err != nil {
			t.Fatalf("LinkFor(%d,%d): %v", c.from, c.to, err)
		}
		if got != c.want {
			t.Errorf("LinkFor(%d,%d) = %+v, want %+v", c.from, c.to, got, c.want)
		}
	}
	if back.BandwidthBytesPerSec != local.BandwidthBytesPerSec/10 {
		t.Errorf("Slower(10) bandwidth = %g, want %g", back.BandwidthBytesPerSec, local.BandwidthBytesPerSec/10)
	}
}

func TestTableNetworkResolvesAndRejects(t *testing.T) {
	spi := LinkClass{BandwidthBytesPerSec: 50e6, SetupCycles: 512, EnergyPJPerByte: 150}
	n, err := TableNetwork(map[Edge]LinkClass{
		{0, 1}: MIPI(),
		{1, 0}: MIPI(),
		{1, 2}: spi,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n.LinkFor(1, 2); err != nil || got != spi {
		t.Errorf("LinkFor(1,2) = %+v, %v; want spi class", got, err)
	}
	// The table is directed: 2->1 was never wired.
	if _, err := n.LinkFor(2, 1); err == nil {
		t.Error("unwired edge 2->1 resolved to a link")
	}
	if _, err := n.LinkFor(0, 5); err == nil {
		t.Error("unwired edge 0->5 resolved to a link")
	}
}

// Two networks registered from equal tables must compare equal — the
// property that keeps the evalpool cache key meaningful — and a
// different table must produce a different digest.
func TestTableNetworkCanonicalDigest(t *testing.T) {
	table := map[Edge]LinkClass{{0, 1}: MIPI(), {1, 0}: MIPI().Slower(2)}
	a, err := TableNetwork(table, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TableNetwork(map[Edge]LinkClass{{1, 0}: MIPI().Slower(2), {0, 1}: MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equal tables produced distinct networks: %q vs %q", a.TableDigest, b.TableDigest)
	}
	c, err := TableNetwork(map[Edge]LinkClass{{0, 1}: MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different tables collided on one digest")
	}
	// The table is registered as a view over the zero Network: chips 0
	// through the largest id survive, and the edges are its overrides.
	sparse, err := TableNetwork(map[Edge]LinkClass{{3, 2}: MIPI().Slower(7), {0, 3}: MIPI()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := View{Survivors: []int{0, 1, 2, 3},
		Overrides: []EdgeClass{{Edge{0, 3}, MIPI()}, {Edge{3, 2}, MIPI().Slower(7)}}}
	if got, ok := ViewOf(sparse.TableDigest); !ok || !reflect.DeepEqual(got, want) || sparse.Profile != NetView {
		t.Errorf("table registered as %+v (%v) on %v, want the view %+v", got, ok, sparse, want)
	}
	if d, err := DigestView(want); err != nil || d != sparse.TableDigest {
		t.Errorf("DigestView of the table's view = %q (%v), want %q", d, err, sparse.TableDigest)
	}
}

// TestTableNetworkDigestPinned pins the content digests of two tables:
// a materialized 64-chip clustered network, and a table with
// non-round floats, multi-digit chip ids and energies whose bit
// patterns have leading zero hex digits. A table's digest is its
// view's, which result-store view records persist, so its spelling
// must not change within a store version.
func TestTableNetworkDigestPinned(t *testing.T) {
	clustered, err := NetworkEdges(ClusteredNetwork(MIPI(), MIPI().Slower(10), 4), 64)
	if err != nil {
		t.Fatal(err)
	}
	odd := map[Edge]LinkClass{
		{0, 1}:    {BandwidthBytesPerSec: 3.14159e8, SetupCycles: 7, EnergyPJPerByte: 0},
		{1, 0}:    {BandwidthBytesPerSec: 2.5e8, SetupCycles: 300, EnergyPJPerByte: 1e-300},
		{10, 3}:   {BandwidthBytesPerSec: 1.2345678901234e9, SetupCycles: 1234567, EnergyPJPerByte: 2.718281828459045},
		{3, 127}:  {BandwidthBytesPerSec: 5e-7, SetupCycles: 0, EnergyPJPerByte: 99.99},
		{127, 10}: {BandwidthBytesPerSec: 0.1, SetupCycles: 65536, EnergyPJPerByte: 1.5e300},
	}
	for _, c := range []struct {
		name   string
		edges  map[Edge]LinkClass
		n      int
		digest string
	}{
		{"clustered-64", clustered, 64, "1d3a09a64d3df3a441eeb66a78d311acb6792f1dc0b06e11559cd18b25360959"},
		{"odd-floats", odd, 128, "f100d16ad8a63827bce48a5c03ac1887be33523ff80281c4cd4af367ebf965fa"},
	} {
		net, err := TableNetwork(c.edges, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if net.TableDigest != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, net.TableDigest, c.digest)
		}
	}
}

// TestTableNetworkAllocs bounds the allocations of registering a
// 64-chip fully-connected table (4032 edges): a handful for the sort,
// the digest and the registered copy, none per edge.
func TestTableNetworkAllocs(t *testing.T) {
	edges, err := NetworkEdges(UniformNetwork(MIPI()), 64)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if _, err := TableNetwork(edges, 64); err != nil {
			t.Fatal(err)
		}
	}); a > 32 {
		t.Fatalf("TableNetwork allocates %.0f times on %d edges, want at most 32", a, len(edges))
	}
}

func TestTableNetworkRejectsBadTables(t *testing.T) {
	if _, err := TableNetwork(nil, 2); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := TableNetwork(map[Edge]LinkClass{{0, 0}: MIPI()}, 2); err == nil {
		t.Error("self-edge accepted")
	}
	if _, err := TableNetwork(map[Edge]LinkClass{{0, 1}: {}}, 2); err == nil {
		t.Error("zero-bandwidth class accepted")
	}
	if _, err := TableNetwork(map[Edge]LinkClass{{0, 2}: MIPI()}, 2); err == nil {
		t.Error("edge past the table's chip count accepted")
	}
	// A board may be wider than its wiring: chip 2 is on it, unwired.
	wide, err := TableNetwork(map[Edge]LinkClass{{0, 1}: MIPI()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ViewOf(wide.TableDigest); !ok || len(v.Survivors) != 3 {
		t.Errorf("3-chip table view %+v, want 3 survivors", v)
	}
	if _, err := wide.LinkFor(1, 2); err == nil {
		t.Error("unwired edge 1->2 of the wide table resolved")
	}
}

// Non-finite bandwidths (Slower(0) gives +Inf; 0/0-style configs give
// NaN) must not validate: an infinite-bandwidth link silently zeroes
// every transfer time. Nor may a non-finite energy, which would turn
// every energy figure into NaN or +Inf.
func TestLinkClassRejectsNonFiniteBandwidth(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.NaN(), 0, -1} {
		c := MIPI()
		c.BandwidthBytesPerSec = bad
		if err := c.Validate(); err == nil {
			t.Errorf("bandwidth %g validated", bad)
		}
		if err := UniformNetwork(c).Validate(); err == nil {
			t.Errorf("uniform network with bandwidth %g validated", bad)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		c := MIPI()
		c.EnergyPJPerByte = bad
		if err := c.Validate(); err == nil {
			t.Errorf("energy %g pJ/B validated", bad)
		}
		if err := UniformNetwork(c).Validate(); err == nil {
			t.Errorf("uniform network with energy %g pJ/B validated", bad)
		}
	}
}

func TestLinkClassTransferCycles(t *testing.T) {
	c := MIPI()
	// 0.5 GB/s at 500 MHz is exactly 1 byte per cycle.
	if got := c.BytesPerCycle(500e6); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("bytes/cycle = %g, want 1.0", got)
	}
	if got := c.TransferCycles(500e6, 0); got != 0 {
		t.Errorf("zero payload = %g cycles, want 0", got)
	}
	if got := c.TransferCycles(500e6, 512); got != 768 {
		t.Errorf("512 B = %g cycles, want 768 (512 + 256 setup)", got)
	}
	if got := c.Slower(10).TransferCycles(500e6, 512); got != 512*10+256 {
		t.Errorf("512 B on 10x-slower class = %g cycles, want %d", got, 512*10+256)
	}
}

// The sweep/bench JSON emits names, not bare ints, and any accepted
// spelling round-trips through the parser.
func TestTopologyTextRoundTrip(t *testing.T) {
	for _, topo := range Topologies() {
		b, err := topo.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		var back Topology
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if back != topo {
			t.Errorf("round trip %v -> %s -> %v", topo, b, back)
		}
	}
	if _, err := Topology(99).MarshalText(); err == nil {
		t.Error("invalid topology marshaled")
	}
	var topo Topology
	if err := topo.UnmarshalText([]byte("dragonfly")); err == nil {
		t.Error("unknown spelling unmarshaled")
	}
	// JSON integration: the enum appears as its name inside documents.
	out, err := json.Marshal(map[string]Topology{"topology": TopoRing})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"topology":"ring"}` {
		t.Errorf("json = %s, want {\"topology\":\"ring\"}", out)
	}
}

func TestNetworkProfileTextRoundTrip(t *testing.T) {
	for p := NetworkProfile(0); p < networkProfileCount; p++ {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var back NetworkProfile
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if back != p {
			t.Errorf("round trip %v -> %s -> %v", p, b, back)
		}
		parsed, err := ParseNetworkProfile(p.String())
		if err != nil || parsed != p {
			t.Errorf("ParseNetworkProfile(%q) = %v, %v", p.String(), parsed, err)
		}
	}
	if _, err := NetworkProfile(99).MarshalText(); err == nil {
		t.Error("invalid profile marshaled")
	}
	if _, err := ParseNetworkProfile("token-ring"); err == nil {
		t.Error("unknown profile parsed")
	}
	// A measured wiring registers as a view, so its spellings name the
	// view profile.
	for _, s := range []string{"table", "per-edge", "netlist"} {
		if p, err := ParseNetworkProfile(s); err != nil || p != NetView {
			t.Errorf("ParseNetworkProfile(%q) = %v, %v; want view", s, p, err)
		}
	}
}

func TestNetworkString(t *testing.T) {
	if got := UniformNetwork(MIPI()).String(); got != "uniform" {
		t.Errorf("uniform String = %q", got)
	}
	if got := ClusteredNetwork(MIPI(), MIPI().Slower(10), 4).String(); got != "clustered-4x10" {
		t.Errorf("clustered String = %q", got)
	}
	n, err := TableNetwork(map[Edge]LinkClass{{0, 1}: MIPI()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.String(); len(got) != len("view-")+8 || got[:5] != "view-" {
		t.Errorf("table String = %q, want view-<8 hex>", got)
	}
}
