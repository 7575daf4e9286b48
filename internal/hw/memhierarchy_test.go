package hw

import (
	"math"
	"testing"
)

func TestMemProfileRoundTrip(t *testing.T) {
	for p := MemProfile(0); p < memProfileCount; p++ {
		if !p.Valid() {
			t.Fatalf("%s reported invalid", p)
		}
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("marshal %s: %v", p, err)
		}
		var q MemProfile
		if err := q.UnmarshalText(text); err != nil {
			t.Fatalf("unmarshal %q: %v", text, err)
		}
		if q != p {
			t.Fatalf("round trip %s -> %q -> %s", p, text, q)
		}
	}
	if _, err := ParseMemProfile("sram"); err == nil {
		t.Fatal("want error for unknown profile")
	}
	if _, err := MemProfile(99).MarshalText(); err == nil {
		t.Fatal("want marshal error for invalid profile")
	}
	for spelling, want := range map[string]MemProfile{
		"flat": MemFlat, "legacy": MemFlat,
		"dram": MemDRAM, "LPDDR5": MemDRAM, "hierarchy": MemDRAM,
	} {
		got, err := ParseMemProfile(spelling)
		if err != nil || got != want {
			t.Fatalf("ParseMemProfile(%q) = %s, %v; want %s", spelling, got, err, want)
		}
	}
}

// FuzzParseMemProfile: the parser never panics, and an accepted
// spelling's canonical name parses back to the same profile and name.
// Seeds in testdata/fuzz cover every alias, case, whitespace, an
// unknown name and the empty string.
func FuzzParseMemProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseMemProfile(s)
		if err != nil {
			return
		}
		name := p.String()
		back, err := ParseMemProfile(name)
		if err != nil || back != p || back.String() != name {
			t.Fatalf("%q parses as %s, whose name parses as %s (%v)", s, name, back, err)
		}
	})
}

func TestMemHierarchyZeroValueIsFlatAndValid(t *testing.T) {
	var m MemHierarchy
	if m.Enabled() {
		t.Fatal("zero value must be the flat (disabled) model")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("zero value must validate: %v", err)
	}
	if m.String() != "flat" {
		t.Fatalf("zero value String = %q", m.String())
	}
	// The flat zero value must not disturb Params validation either.
	if err := Siracusa().Validate(); err != nil {
		t.Fatalf("Siracusa with zero Mem: %v", err)
	}
}

func TestLPDDR5Validates(t *testing.T) {
	m := LPDDR5()
	if !m.Enabled() {
		t.Fatal("LPDDR5 must enable the hierarchy")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("LPDDR5: %v", err)
	}
	p := Siracusa()
	p.Mem = m
	if err := p.Validate(); err != nil {
		t.Fatalf("Siracusa+LPDDR5: %v", err)
	}
}

func TestMemHierarchyValidateRejects(t *testing.T) {
	base := LPDDR5()
	cases := []struct {
		name string
		mut  func(*MemHierarchy)
	}{
		{"zero bandwidth", func(m *MemHierarchy) { m.DRAMBytesPerCycle = 0 }},
		{"zero burst", func(m *MemHierarchy) { m.DRAMBurstBytes = 0 }},
		{"negative setup", func(m *MemHierarchy) { m.DRAMBurstSetupCycles = -1 }},
		{"zero depth", func(m *MemHierarchy) { m.PrefetchDepth = 0 }},
		{"zero banks", func(m *MemHierarchy) { m.SRAMBanks = 0 }},
		{"half tiling", func(m *MemHierarchy) { m.TileN = 64 }},
		{"half ffn tiling", func(m *MemHierarchy) { m.FFNTileK = 64 }},
		{"negative tile", func(m *MemHierarchy) { m.TileN, m.TileK = -1, -1 }},
		{"negative energy", func(m *MemHierarchy) { m.DRAMPJPerByte = -1 }},
		{"NaN energy", func(m *MemHierarchy) { m.DRAMPJPerByte = math.NaN() }},
		{"+Inf energy", func(m *MemHierarchy) { m.DRAMPJPerByte = math.Inf(1) }},
		{"-Inf energy", func(m *MemHierarchy) { m.DRAMPJPerByte = math.Inf(-1) }},
		{"invalid profile", func(m *MemHierarchy) { m.Profile = MemProfile(42) }},
	}
	for _, tc := range cases {
		m := base
		tc.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: want validation error", tc.name)
		}
		p := Siracusa()
		p.Mem = m
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Params.Validate must reject too", tc.name)
		}
	}
}

func TestMemHierarchyTileFor(t *testing.T) {
	m := LPDDR5()
	m.TileK, m.TileN = 256, 128
	if n, k := m.TileFor(false); n != 128 || k != 256 {
		t.Fatalf("attention tile = %dx%d", k, n)
	}
	// FFN inherits the attention tiling until overridden.
	if n, k := m.TileFor(true); n != 128 || k != 256 {
		t.Fatalf("inherited FFN tile = %dx%d", k, n)
	}
	m.FFNTileK, m.FFNTileN = 512, 64
	if n, k := m.TileFor(true); n != 64 || k != 512 {
		t.Fatalf("override FFN tile = %dx%d", k, n)
	}
}

func TestMemHierarchyString(t *testing.T) {
	m := LPDDR5()
	if got := m.String(); got != "dram-d2b8" {
		t.Fatalf("LPDDR5 String = %q", got)
	}
	m.TileK, m.TileN = 256, 128
	if got := m.String(); got != "dram-d2b8-t256x128" {
		t.Fatalf("tiled String = %q", got)
	}
	m.FFNTileK, m.FFNTileN = 512, 64
	if got := m.String(); got != "dram-d2b8-t256x128-f512x64" {
		t.Fatalf("per-family String = %q", got)
	}
}
