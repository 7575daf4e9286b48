package resilience

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcudist/internal/hw"
)

const sampleNetlist = `
# 4-chip lab board: MIPI daisy chain plus a slow SPI repair link.
chips 4
class mipi 0.5e9 256 100
class spi  5e7  64  40
link 0 1 mipi bidi
link 1 2 mipi bidi
link 2 3 mipi bidi
link 0 3 spi  bidi
link 3 1 spi          # directed extra
`

func TestParseNetlist(t *testing.T) {
	nl, err := ParseNetlist(strings.NewReader(sampleNetlist))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Chips != 4 || len(nl.Classes) != 2 || len(nl.Edges) != 9 {
		t.Fatalf("parsed chips=%d classes=%d edges=%d, want 4/2/9", nl.Chips, len(nl.Classes), len(nl.Edges))
	}
	net, err := nl.Network()
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.LinkFor(0, 1)
	if err != nil || c.BandwidthBytesPerSec != 0.5e9 {
		t.Fatalf("edge 0->1 resolves %+v err %v, want MIPI", c, err)
	}
	c, err = net.LinkFor(3, 0)
	if err != nil || c.BandwidthBytesPerSec != 5e7 {
		t.Fatalf("edge 3->0 resolves %+v err %v, want SPI", c, err)
	}
	if _, err := net.LinkFor(0, 2); err == nil {
		t.Fatal("unwired edge 0->2 resolved")
	}
	if _, err := net.LinkFor(1, 3); err == nil {
		t.Fatal("the 3->1 link is directed; 1->3 should be unwired")
	}
}

func TestNetlistRoundTrip(t *testing.T) {
	nl, err := ParseNetlist(strings.NewReader(sampleNetlist))
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseNetlist(strings.NewReader(nl.Format()))
	if err != nil {
		t.Fatalf("formatted netlist does not re-parse: %v", err)
	}
	a, err := nl.Network()
	if err != nil {
		t.Fatal(err)
	}
	b, err := again.Network()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Parse(Format(nl)) resolves to a different network digest")
	}
	// Formatting is canonical: a second round trip is byte-identical.
	if nl.Format() != again.Format() {
		t.Fatal("Format is not a fixed point of Parse")
	}
}

func TestNetlistFromNetworkRoundTrip(t *testing.T) {
	torus, err := hw.TorusNetwork(4, 2, hw.MIPI())
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NetlistFromNetwork(torus, 8)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nl.Network()
	if err != nil {
		t.Fatal(err)
	}
	if net != torus {
		t.Fatal("exporting and re-registering the torus changed its digest")
	}
	parsed, err := ParseNetlist(strings.NewReader(nl.Format()))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := parsed.Network()
	if err != nil {
		t.Fatal(err)
	}
	if rt != torus {
		t.Fatal("file round trip changed the torus digest")
	}
}

// longClassNetlist declares and wires one class whose name is n bytes
// long, spelling its bandwidth 5e8. Format respells that 5e+08, two
// bytes longer: with no bound on names, n = 65516 parses (a 65534-byte
// class line) but its spelling exceeds the scanner's line limit.
func longClassNetlist(n int) string {
	name := strings.Repeat("c", n)
	return "chips 4\nclass " + name + " 5e8 256 100\nlink 0 1 " + name + "\n"
}

// FuzzParseNetlist checks the netlist parser on arbitrary input: it
// never panics, every netlist it accepts has finite class costs, and
// its canonical Format spelling parses back to a netlist that formats
// to the same text and resolves to an equal edge table. The seed
// corpus in testdata/fuzz holds sampleNetlist and every
// TestParseNetlistRejectsMalformed input, the non-finite energy lines
// among them; the 65516-byte class name is added here, since the
// fuzzer does not grow inputs that long in a short run.
func FuzzParseNetlist(f *testing.F) {
	f.Add(longClassNetlist(65516))
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	f.Fuzz(func(t *testing.T, text string) {
		nl, err := ParseNetlist(strings.NewReader(text))
		if err != nil {
			return
		}
		for name, c := range nl.Classes {
			if !finite(c.BandwidthBytesPerSec) || !finite(c.EnergyPJPerByte) {
				t.Fatalf("%q: class %q has non-finite costs %+v", text, name, c)
			}
		}
		spelled := nl.Format()
		again, err := ParseNetlist(strings.NewReader(spelled))
		if err != nil {
			t.Fatalf("%q parsed, but its spelling %q does not: %v", text, spelled, err)
		}
		if got := again.Format(); got != spelled {
			t.Fatalf("%q: spelling %q formats again as %q", text, spelled, got)
		}
		if !reflect.DeepEqual(again.EdgeTable(), nl.EdgeTable()) {
			t.Fatalf("%q: spelling %q resolves to a different edge table", text, spelled)
		}
	})
}

func TestLoadNetlist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "board.netlist")
	if err := os.WriteFile(path, []byte(sampleNetlist), 0o644); err != nil {
		t.Fatal(err)
	}
	nl, err := LoadNetlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Chips != 4 {
		t.Fatalf("loaded chips=%d, want 4", nl.Chips)
	}
	if _, err := LoadNetlist(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
}

// Every malformed spelling is rejected with an error naming the line —
// the CI-pinned contract: a bad measured wiring must never silently
// simulate.
func TestParseNetlistRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing chips":      "class mipi 0.5e9 256 100\nlink 0 1 mipi\n",
		"chips too small":    "chips 1\n",
		"chips not a number": "chips eight\n",
		"duplicate chips":    "chips 4\nchips 4\n",
		"unknown directive":  "chips 4\nwire 0 1\n",
		"class field count":  "chips 4\nclass mipi 0.5e9 256\n",
		"class bad float":    "chips 4\nclass mipi fast 256 100\n",
		"class bad setup":    "chips 4\nclass mipi 0.5e9 soon 100\n",
		"class zero bw":      "chips 4\nclass mipi 0 256 100\n",
		"class NaN energy":   "chips 4\nclass m 0.5e9 256 NaN\nlink 0 1 m\n",
		"class +Inf energy":  "chips 4\nclass m 0.5e9 256 +Inf\nlink 0 1 m\n",
		"duplicate class":    "chips 4\nclass mipi 0.5e9 256 100\nclass mipi 1e9 0 0\n",
		"link before chips":  "class mipi 0.5e9 256 100\nlink 0 1 mipi\nchips 4\n",
		"link field count":   "chips 4\nclass mipi 0.5e9 256 100\nlink 0 1\n",
		"link bad chip":      "chips 4\nclass mipi 0.5e9 256 100\nlink zero 1 mipi\n",
		"link out of range":  "chips 4\nclass mipi 0.5e9 256 100\nlink 0 4 mipi\n",
		"link self edge":     "chips 4\nclass mipi 0.5e9 256 100\nlink 2 2 mipi\n",
		"unknown class":      "chips 4\nclass mipi 0.5e9 256 100\nlink 0 1 spi\n",
		"duplicate edge":     "chips 4\nclass mipi 0.5e9 256 100\nlink 0 1 mipi\nlink 0 1 mipi\n",
		"bidi duplicates":    "chips 4\nclass mipi 0.5e9 256 100\nlink 1 0 mipi\nlink 0 1 mipi bidi\n",
		"bad bidi marker":    "chips 4\nclass mipi 0.5e9 256 100\nlink 0 1 mipi both\n",
		"no links":           "chips 4\nclass mipi 0.5e9 256 100\n",
		"long class name":    longClassNetlist(65516),
	}
	for name, input := range cases {
		if _, err := ParseNetlist(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

// The class-name bound and the scanner's line limit both name the
// offending line, and a name at the bound still round-trips.
func TestParseNetlistLongLines(t *testing.T) {
	for input, want := range map[string]string{
		longClassNetlist(maxClassName + 1):               "netlist line 2: ",
		"chips 4\n#" + strings.Repeat("x", 1<<16) + "\n": "netlist line 2: ",
	} {
		if _, err := ParseNetlist(strings.NewReader(input)); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%.40q...: error %v, want prefix %q", input, err, want)
		}
	}
	nl, err := ParseNetlist(strings.NewReader(longClassNetlist(maxClassName)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNetlist(strings.NewReader(nl.Format())); err != nil {
		t.Fatalf("a %d-byte class name does not round-trip: %v", maxClassName, err)
	}
}
