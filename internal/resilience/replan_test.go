package resilience

import (
	"math"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/explore"
	"mcudist/internal/model"
)

func TestDegradeKeepsLegalChipCount(t *testing.T) {
	cfg := model.TinyLlama42M()
	sys := core.DefaultSystem(8)
	deg, _, err := Degrade(sys, cfg, DropChip(7))
	if err != nil {
		t.Fatal(err)
	}
	// TinyLlama42M accepts every count up to its 8 heads: 7 survivors
	// stay 7 chips.
	if deg.Chips != 7 {
		t.Fatalf("degraded chips = %d, want 7", deg.Chips)
	}
}

func TestReplanStudySlowEdge(t *testing.T) {
	sys := core.DefaultSystem(8)
	cfg := model.TinyLlama42M()
	studies, err := ReplanStudy(sys, cfg, [][]Fault{{SlowEdge(0, 1, 10)}}, explore.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	study := studies[0]
	if study.Chips != 8 || study.DegradedChips != 8 {
		t.Fatalf("chips %d -> %d, want 8 -> 8", study.Chips, study.DegradedChips)
	}
	r := study.Replan
	if r.Static == nil {
		t.Fatalf("stale plan infeasible on a slowed edge: %s", r.StaticErr)
	}
	if r.AdoptedCycles > r.Static.Cycles {
		t.Fatalf("replanned %g cycles worse than static %g", r.AdoptedCycles, r.Static.Cycles)
	}
	if r.MarginCycles < 1 || math.IsInf(r.MarginCycles, 1) {
		t.Fatalf("margin %g, want finite >= 1", r.MarginCycles)
	}
	// The degraded board costs more than the pristine one under any
	// plan: slowing an edge never speeds a session up.
	if r.AdoptedCycles < study.Pristine.Cycles {
		t.Fatalf("degraded session %g cycles cheaper than pristine %g", r.AdoptedCycles, study.Pristine.Cycles)
	}
}

func TestReplanStudyDropChip(t *testing.T) {
	sys := core.DefaultSystem(8)
	cfg := model.TinyLlama42M()
	studies, err := ReplanStudy(sys, cfg, [][]Fault{{DropChip(3)}}, explore.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	study := studies[0]
	if study.DegradedChips != 7 {
		t.Fatalf("degraded chips = %d, want 7", study.DegradedChips)
	}
	r := study.Replan
	if r.Static == nil {
		t.Fatalf("stale plan infeasible after a drop on an all-pairs board: %s", r.StaticErr)
	}
	if r.AdoptedCycles > r.Static.Cycles || r.MarginCycles < 1 {
		t.Fatalf("replanned %g vs static %g (margin %g): replanning must never lose",
			r.AdoptedCycles, r.Static.Cycles, r.MarginCycles)
	}
}
