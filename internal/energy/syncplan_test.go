package energy

import (
	"math"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/hw"
	"mcudist/internal/perfsim"
)

// C2CByClass must bill each class's bytes at the pJ/B of the link
// classes they crossed, and the per-class split must sum to the C2C
// term of the whole-run model.
func TestC2CByClassBillsPerLink(t *testing.T) {
	p := hw.Siracusa()
	local := hw.MIPI()
	backhaul := hw.MIPI().Slower(10)

	res := &perfsim.Result{
		LinkClasses: []hw.LinkClass{local, backhaul},
		PerChip: []perfsim.ChipStats{
			{C2CSentBytes: 3072, C2CSentBytesByClass: []int64{1024, 2048}},
			{C2CSentBytes: 512, C2CSentBytesByClass: []int64{512, 0}},
		},
		ByClass: []perfsim.ClassStats{
			{
				Class: collective.PrefillMHSA, Topology: hw.TopoRing, Syncs: 8,
				C2CSentBytes: 2048, C2CSentBytesByLink: []int64{1024, 1024},
			},
			{
				Class: collective.PrefillFFN, Topology: hw.TopoTree, Syncs: 8,
				C2CSentBytes: 1536, C2CSentBytesByLink: []int64{512, 1024},
			},
		},
	}

	split := C2CByClass(p, res)
	if len(split) != 2 {
		t.Fatalf("%d classes, want 2", len(split))
	}
	const pJ = 1e-12
	wantMHSA := (1024*local.EnergyPJPerByte + 1024*backhaul.EnergyPJPerByte) * pJ
	if math.Abs(split[0].C2CJoules-wantMHSA) > 1e-18 {
		t.Errorf("prefill-mhsa %g J, want %g", split[0].C2CJoules, wantMHSA)
	}
	if split[0].Class != collective.PrefillMHSA || split[0].Topology != hw.TopoRing {
		t.Errorf("class 0 = %s on %s", split[0].Class, split[0].Topology)
	}

	var sum float64
	for _, e := range split {
		sum += e.C2CJoules
	}
	whole := FromResult(p, res).C2C
	if math.Abs(sum-whole) > 1e-12*whole {
		t.Errorf("per-class energy sums to %g J, whole-run C2C term is %g J", sum, whole)
	}
}
