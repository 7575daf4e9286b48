package main

import (
	"reflect"
	"slices"
	"testing"

	"mcudist/internal/hw"
	"mcudist/internal/model"
)

func TestSweepPointsLegal(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		pts := sweepPoints(seed, 256)
		if len(pts) != 256 {
			t.Fatalf("seed %d: %d points, want 256", seed, len(pts))
		}
		seen := map[any]bool{}
		perStratum := map[[2]string]int{}
		for i, pt := range pts {
			wl, sys := pt.Workload, pt.System
			if seen[pt] {
				t.Errorf("seed %d: point %d repeats an earlier point", seed, i)
			}
			seen[pt] = true
			switch wl.Model.Name {
			case model.MobileBERT512().Name:
				if wl.Mode != model.Prompt {
					t.Errorf("seed %d: point %d runs MobileBERT autoregressively", seed, i)
				}
			case model.EdgeLlama1B().Name:
				if sys.HW.Mem != hw.LPDDR5() {
					t.Errorf("seed %d: point %d runs EdgeLlama without LPDDR5", seed, i)
				}
			}
			var chips []int
			for _, m := range sweepModels {
				if m.cfg.Name == wl.Model.Name {
					chips = m.chips
				}
			}
			if !slices.Contains(chips, sys.Chips) {
				t.Errorf("seed %d: point %d: %d chips is not legal for %s", seed, i, sys.Chips, wl.Model.Name)
			}
			if wl.SeqLen < 16 || wl.SeqLen > 256 {
				t.Errorf("seed %d: point %d: sequence length %d outside 16..256", seed, i, wl.SeqLen)
			}
			if wl.Mode == model.Autoregressive && (wl.Batch < 1 || wl.Batch > 8) || wl.Mode == model.Prompt && wl.Batch != 0 {
				t.Errorf("seed %d: point %d: batch %d in mode %v", seed, i, wl.Batch, wl.Mode)
			}
			perStratum[[2]string{wl.Model.Name, sys.HW.Topology.String()}]++
		}
		for k, n := range perStratum {
			if n != 16 {
				t.Errorf("seed %d: stratum %v holds %d points, want 16", seed, k, n)
			}
		}
	}
}

func TestSweepPointsSeeded(t *testing.T) {
	a, b := sweepPoints(7, 256), sweepPoints(7, 256)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different points")
	}
	c := sweepPoints(8, 256)
	shared := 0
	in := map[any]bool{}
	for _, pt := range a {
		in[pt] = true
	}
	for _, pt := range c {
		if in[pt] {
			shared++
		}
	}
	if shared > 16 {
		t.Errorf("seeds 7 and 8 share %d of 256 points", shared)
	}
}
