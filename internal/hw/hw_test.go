package hw

import (
	"math"
	"testing"
)

func TestSiracusaValid(t *testing.T) {
	p := Siracusa()
	if err := p.Validate(); err != nil {
		t.Fatalf("default preset invalid: %v", err)
	}
}

func TestSiracusaMatchesPaperConstants(t *testing.T) {
	p := Siracusa()
	if p.Chip.Cores != 8 {
		t.Errorf("cores = %d, want 8", p.Chip.Cores)
	}
	if p.Chip.FreqHz != 500e6 {
		t.Errorf("freq = %g, want 500 MHz", p.Chip.FreqHz)
	}
	if p.Chip.L1Bytes != 256*KiB {
		t.Errorf("L1 = %d, want 256 KiB", p.Chip.L1Bytes)
	}
	if p.Chip.L2Bytes != 2*MiB {
		t.Errorf("L2 = %d, want 2 MiB", p.Chip.L2Bytes)
	}
	if p.Network.Profile != NetUniform {
		t.Errorf("network profile = %v, want uniform", p.Network.Profile)
	}
	if p.Network.Local.BandwidthBytesPerSec != 0.5e9 {
		t.Errorf("link bw = %g, want 0.5 GB/s", p.Network.Local.BandwidthBytesPerSec)
	}
	if p.Network.Local.EnergyPJPerByte != 100 {
		t.Errorf("link energy = %g, want 100 pJ/B", p.Network.Local.EnergyPJPerByte)
	}
	if p.Energy.L3PJPerByte != 100 || p.Energy.L2PJPerByte != 2 {
		t.Errorf("memory energies = %g/%g, want 100/2 pJ/B", p.Energy.L3PJPerByte, p.Energy.L2PJPerByte)
	}
	if p.GroupSize != 4 {
		t.Errorf("group size = %d, want 4", p.GroupSize)
	}
	if p.Chip.ClusterPowerW != 13e-3 {
		t.Errorf("cluster power = %g, want 13 mW", p.Chip.ClusterPowerW)
	}
}

func TestCycleConversionRoundTrip(t *testing.T) {
	p := Siracusa()
	if got := p.CyclesToSeconds(500e6); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("500e6 cycles at 500 MHz = %g s, want 1 s", got)
	}
}

func TestLinkBytesPerCycle(t *testing.T) {
	p := Siracusa()
	// 0.5 GB/s at 500 MHz is exactly 1 byte per cycle.
	if got := p.Network.Local.BytesPerCycle(p.Chip.FreqHz); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("link bytes/cycle = %g, want 1.0", got)
	}
}

func TestUsableL2(t *testing.T) {
	p := Siracusa()
	want := 2*MiB - 448*KiB
	if got := p.UsableL2Bytes(); got != want {
		t.Errorf("usable L2 = %d, want %d", got, want)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero cores", func(p *Params) { p.Chip.Cores = 0 }},
		{"negative freq", func(p *Params) { p.Chip.FreqHz = -1 }},
		{"zero macs", func(p *Params) { p.Chip.MACsPerCorePerCycle = 0 }},
		{"zero l1", func(p *Params) { p.Chip.L1Bytes = 0 }},
		{"zero l2", func(p *Params) { p.Chip.L2Bytes = 0 }},
		{"zero l3", func(p *Params) { p.Chip.L3Bytes = 0 }},
		{"negative reserve", func(p *Params) { p.Chip.L2ReserveBytes = -1 }},
		{"reserve too large", func(p *Params) { p.Chip.L2ReserveBytes = p.Chip.L2Bytes }},
		{"zero l2l1 bw", func(p *Params) { p.Chip.DMAL2L1BytesPerCycle = 0 }},
		{"zero l3l2 bw", func(p *Params) { p.Chip.DMAL3L2BytesPerCycle = 0 }},
		{"negative dma setup", func(p *Params) { p.Chip.DMAL2L1SetupCycles = -1 }},
		{"negative kernel setup", func(p *Params) { p.Chip.KernelSetupCycles = -1 }},
		{"negative power", func(p *Params) { p.Chip.ClusterPowerW = -1 }},
		{"zero link bw", func(p *Params) { p.Network.Local.BandwidthBytesPerSec = 0 }},
		{"negative link setup", func(p *Params) { p.Network.Local.SetupCycles = -1 }},
		{"negative link energy", func(p *Params) { p.Network.Local.EnergyPJPerByte = -1 }},
		{"invalid network profile", func(p *Params) { p.Network.Profile = NetworkProfile(99) }},
		{"clustered zero cluster size", func(p *Params) {
			p.Network = ClusteredNetwork(MIPI(), MIPI().Slower(10), 0)
		}},
		{"clustered dead backhaul", func(p *Params) {
			p.Network = ClusteredNetwork(MIPI(), LinkClass{}, 4)
		}},
		{"unregistered view", func(p *Params) {
			p.Network = Network{Profile: NetView, TableDigest: "no-such-digest"}
		}},
		{"negative l3 energy", func(p *Params) { p.Energy.L3PJPerByte = -1 }},
		{"negative l2 energy", func(p *Params) { p.Energy.L2PJPerByte = -1 }},
		{"tiny group", func(p *Params) { p.GroupSize = 1 }},
	}
	for _, m := range mutations {
		p := Siracusa()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad params", m.name)
		}
	}
}

// The GroupSize floor only applies to the tree-lowered shapes: the
// ring and the fully-connected exchange never consult it, so a ring
// platform with the zero GroupSize must validate.
func TestGroupSizeFloorOnlyForTreeShapes(t *testing.T) {
	for _, topo := range Topologies() {
		p := Siracusa()
		p.Topology = topo
		p.GroupSize = 0
		err := p.Validate()
		treeLowered := topo == TopoTree || topo == TopoStar
		if treeLowered && err == nil {
			t.Errorf("%s: GroupSize=0 accepted for a tree-lowered topology", topo)
		}
		if !treeLowered && err != nil {
			t.Errorf("%s: GroupSize=0 rejected for a topology that never consults it: %v", topo, err)
		}
	}
}
