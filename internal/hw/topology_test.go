package hw

import "testing"

func TestTopologyStringAndParse(t *testing.T) {
	for _, topo := range Topologies() {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", topo.String(), got, err)
		}
	}
	for spelling, want := range map[string]Topology{
		"TREE": TopoTree, "flat": TopoStar, "all-to-one": TopoStar,
		"Ring": TopoRing, "full": TopoFullyConnected, "all-to-all": TopoFullyConnected,
	} {
		got, err := ParseTopology(spelling)
		if err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v, want %v", spelling, got, err, want)
		}
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Error("unknown topology spelling accepted")
	}
}

// FuzzParseTopology drives the parser through Topology.UnmarshalText,
// the path JSON decoding takes: it never panics, and an accepted
// spelling's canonical name unmarshals back to the same topology and
// name. Seeds in testdata/fuzz cover every alias, case, whitespace, an
// unknown name and the empty string.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		var topo Topology
		if err := topo.UnmarshalText([]byte(s)); err != nil {
			return
		}
		name := topo.String()
		var back Topology
		if err := back.UnmarshalText([]byte(name)); err != nil || back != topo || back.String() != name {
			t.Fatalf("%q unmarshals as %s, whose name unmarshals as %s (%v)", s, name, back, err)
		}
	})
}

func TestValidateRejectsUnknownTopology(t *testing.T) {
	p := Siracusa()
	p.Topology = Topology(99)
	if err := p.Validate(); err == nil {
		t.Error("unknown topology passed validation")
	}
	for _, topo := range Topologies() {
		p.Topology = topo
		if err := p.Validate(); err != nil {
			t.Errorf("%s rejected: %v", topo, err)
		}
	}
}
