package energy

import (
	"testing"
	"testing/quick"

	"mcudist/internal/hw"
	"mcudist/internal/perfsim"
)

// Property: energy is monotone in every counter.
func TestPropertyEnergyMonotone(t *testing.T) {
	p := hw.Siracusa()
	f := func(compRaw, l3Raw, l2Raw, c2cRaw uint32) bool {
		base := perfsim.ChipStats{
			ComputeCycles:       float64(compRaw),
			L3Bytes:             int64(l3Raw),
			L2L1Bytes:           int64(l2Raw),
			C2CSentBytes:        int64(c2cRaw),
			C2CSentBytesByClass: []int64{int64(c2cRaw)},
		}
		classes := []hw.LinkClass{hw.MIPI()}
		res := &perfsim.Result{LinkClasses: classes, PerChip: []perfsim.ChipStats{base}}
		e0 := FromResult(p, res).Total()

		bumped := base
		bumped.L3Bytes++
		bumped.ComputeCycles++
		res2 := &perfsim.Result{LinkClasses: classes, PerChip: []perfsim.ChipStats{bumped}}
		e1 := FromResult(p, res2).Total()
		return e1 >= e0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is additive over chips.
func TestPropertyEnergyAdditiveOverChips(t *testing.T) {
	p := hw.Siracusa()
	f := func(aRaw, bRaw uint32) bool {
		a := perfsim.ChipStats{ComputeCycles: float64(aRaw), L3Bytes: int64(aRaw)}
		b := perfsim.ChipStats{ComputeCycles: float64(bRaw), L2L1Bytes: int64(bRaw)}
		joint := FromResult(p, &perfsim.Result{PerChip: []perfsim.ChipStats{a, b}}).Total()
		separate := FromResult(p, &perfsim.Result{PerChip: []perfsim.ChipStats{a}}).Total() +
			FromResult(p, &perfsim.Result{PerChip: []perfsim.ChipStats{b}}).Total()
		diff := joint - separate
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-12*(joint+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroActivityZeroEnergy(t *testing.T) {
	p := hw.Siracusa()
	res := &perfsim.Result{PerChip: make([]perfsim.ChipStats, 8)}
	if got := FromResult(p, res).Total(); got != 0 {
		t.Fatalf("idle system consumed %g J", got)
	}
}
